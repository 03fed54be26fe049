"""Every node's social state in one table: per-sample contact-time
accumulators, cumulative daily averages, decaying pair weights, and
opportunistically updated node importance."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .contacts import SampleConfig

if TYPE_CHECKING:
    import numpy as np


class LedgerOrderingError(RuntimeError):
    """A ledger update arrived out of order with respect to its clock."""


def decay_coefficients(samples_per_day: int) -> np.ndarray:
    """Weight coefficients t/(t+j) for sample offsets j = 0..t-1.

    The current sample gets coefficient 1; it decreases strictly to
    t/(2t-1) for the last upcoming sample.
    """
    import numpy as np

    t = samples_per_day
    return t / (t + np.arange(t, dtype=float))


class SocialLedger:
    """The social bookkeeping of all N nodes of a run, in one table.

    `tct[a, b, i]` accumulates a's contact time with b in daily sample i; at
    each sample boundary the finished sample is folded into `ad[a, b, i]`, a
    cumulative moving average over days (zero-contact days included, so
    stale pair strengths decay). All nodes roll at the same boundaries, so a
    roll is one array operation. Pair weights combine the averages of the
    next full day of samples with strictly decreasing coefficients; their
    N x N matrix is computed once per slot, when first read. Node importance
    is a damped sum over the peers met in the current sample, weighted by
    pair weight and the peers' last exchanged importance values.

    Memory: two N x N x t float64 arrays plus one N x N weight matrix.
    """

    def __init__(self, node_count: int, cfg: SampleConfig, damping: float = 0.8):
        if not 0.0 <= damping <= 1.0:
            raise ValueError("damping must be in [0, 1]")
        # numpy loads with the first ledger, so the runs that build none
        # (epidemic, bubblerap) never pay for it
        import numpy as np

        n, t = node_count, cfg.samples_per_day
        self.node_count = n
        self.cfg = cfg
        self.damping = float(damping)
        self.tct = np.zeros((n, n, t))
        # the averages are stored sample-major, so that `weights_at` gathers
        # whole contiguous (N,) rows; `ad[a, b, i]` reads and writes them
        self._ad_by_sample = np.zeros((n, t, n))
        self.ad = self._ad_by_sample.transpose(0, 2, 1)
        self.clock = 0  # linear index of the open slot
        self.current_sample = 0  # its sample index
        self.neighbors: list[set[int]] = [set() for _ in range(n)]  # met in the open slot
        # plain floats: the damped sums can grow without bound over long runs
        # and should saturate quietly at inf rather than warn
        base = 1.0 - self.damping
        self._importance = [[base] * t for _ in range(n)]
        self._peer_importance = [[base] * n for _ in range(n)]  # [node][peer]
        self._coeff = decay_coefficients(t)
        self._matrix: np.ndarray | None = None  # the open slot's weights
        self._rows: list[list[float] | None] = [None] * n

    def _check_pair(self, a: int, b: int) -> None:
        if a == b or not (0 <= a < self.node_count and 0 <= b < self.node_count):
            raise ValueError(f"no social state between nodes {a} and {b}")

    def mark_met(self, a: int, b: int) -> None:
        """Add a and b to each other's current-sample neighbor set."""
        self._check_pair(a, b)
        self.neighbors[a].add(b)
        self.neighbors[b].add(a)

    def record_contact_fragment(self, a: int, b: int, lin: int, duration: float) -> None:
        """Accumulate one fragment of a contact between a and b, on both
        sides, in linear slot `lin` (sample index `lin % samples_per_day`).

        Fragments for the open slot or earlier are accepted; a fragment
        with a past slot simply joins that sample index's next fold. A
        future slot is an ordering error.
        """
        self._check_pair(a, b)
        if duration <= 0 or lin < 0:
            raise ValueError(f"need slot >= 0 and duration > 0, got {lin} and {duration}")
        if lin > self.clock:
            raise LedgerOrderingError(f"fragment for future slot {lin} (clock at {self.clock})")
        i = lin % self.cfg.samples_per_day
        self.tct[a, b, i] += duration
        self.tct[b, a, i] += duration
        if lin == self.clock:
            self.neighbors[a].add(b)
            self.neighbors[b].add(a)

    def roll_sample(self) -> None:
        """Close the open slot: fold its sample into every pair's per-day
        average, then open the next slot.

        Every average for that sample index advances by one day, including
        pairs with zero contact time.
        """
        i = self.current_sample
        # the open slot is day `clock // t` of its sample, so that sample has
        # closed as many days before it; this roll closes one more
        j = self.clock // self.cfg.samples_per_day + 1
        self.ad[:, :, i] = (self.tct[:, :, i] + (j - 1) * self.ad[:, :, i]) / j
        self.tct[:, :, i] = 0.0
        self.clock += 1
        self.current_sample = self.clock % self.cfg.samples_per_day
        for met in self.neighbors:
            met.clear()
        self._matrix = None
        self._rows = [None] * self.node_count

    def weights_at(self, sample_index: int) -> np.ndarray:
        """Every pair's social strength at the given sample, as an N x N
        matrix (row a: node a's weights toward each peer).

        Sums the per-day averages of the next full day of samples, starting
        at the given one, scaled by strictly decreasing coefficients.
        Unknown peers weigh 0.
        """
        t = self.cfg.samples_per_day
        if not 0 <= sample_index < t:
            raise ValueError(f"sample index {sample_index} out of range")
        import numpy as np

        # Each node's (N, t) block is copied sample-major, the layout that a
        # per-node `ad[:, order] @ coeff` product reads, so that the batched
        # product adds in the same order and rounds the same (a plain
        # `ad[:, :, order]` copy rounds some sums differently for small N).
        order = (sample_index + np.arange(t)) % t
        return np.take(self._ad_by_sample, order, axis=1).transpose(0, 2, 1) @ self._coeff

    def weights_to_all_neighbors(self, node: int) -> list[float]:
        """The node's current weights toward every node, indexed by node id
        (0.0 for an unknown peer and for the node itself): its row of the
        slot's weight matrix, built once per node and slot."""
        row = self._rows[node]
        if row is None:
            if self._matrix is None:
                self._matrix = self.weights_at(self.current_sample)
            row = self._rows[node] = self._matrix[node].tolist()
        return row

    def update_importance(self, node: int) -> float:
        """Recompute the node's importance for the current sample.

        Damped sum over the current-sample neighbor set of pair weight times
        the neighbor's cached importance, divided by the neighbor count.
        With no neighbors (or damping 0) this collapses to the base value.
        """
        base = 1.0 - self.damping
        met = self.neighbors[node]
        n = len(met)
        total = 0.0
        if n:
            weights = self.weights_to_all_neighbors(node)
            cached = self._peer_importance[node]
            for peer in sorted(met):
                w = weights[peer]
                if w > 0.0:  # zero-weight terms contribute nothing; also avoids 0 * inf
                    total += w * cached[peer]
        value = base + self.damping * (total / n) if n else base
        self._importance[node][self.current_sample] = value
        return value

    def meet(self, a: int, b: int) -> None:
        """Opportunistic importance exchange as a contact comes up: a and b
        see each other, both recompute from cached values, then each caches
        the other's fresh result."""
        self.mark_met(a, b)
        ia = self.update_importance(a)
        ib = self.update_importance(b)
        self._peer_importance[a][b] = ib
        self._peer_importance[b][a] = ia

    def importance(self, node: int, sample_index: int | None = None) -> float:
        """The node's last computed importance for the given sample (default:
        now)."""
        return self._importance[node][self.current_sample if sample_index is None else sample_index]


def dump_ledgers_csv(ledger: SocialLedger) -> Iterator[tuple[str, str]]:
    """Render the debug CSVs one node at a time: one (node, peer, sample,
    ad, weight) row per sample for every pair with a nonzero average, and
    one (node, sample, importance) row per node and sample.

    Yields `(pairs, importance)` text chunks: the two header lines first,
    then one chunk per node, so `node_count + 1` in all. Joining each side
    gives the whole file; no whole-file string is built.
    """
    import numpy as np

    n, t = ledger.node_count, ledger.cfg.samples_per_day
    # whole-matrix products, whose rounding the pinned dumps hold
    weights = np.stack([ledger.weights_at(i) for i in range(t)], axis=2)  # [node, peer, sample]
    yield "node,peer,sample,ad,weight\n", "node,sample,importance\n"
    for node in range(n):
        ad = ledger.ad[node]
        peers = np.flatnonzero(ad.any(axis=1))
        peers = peers[peers != node].tolist()
        pair_lines = [
            f"{node},{peer},{i},{a!r},{w!r}\n"
            for peer, ad_row, w_row in zip(peers, ad[peers].tolist(), weights[node, peers].tolist())
            for i, (a, w) in enumerate(zip(ad_row, w_row))
        ]
        imp_lines = [f"{node},{i},{imp!r}\n" for i, imp in enumerate(ledger._importance[node])]
        yield "".join(pair_lines), "".join(imp_lines)
