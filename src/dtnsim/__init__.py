"""Contact-trace driven simulator for social opportunistic routing.

Implements the dLife and dLifeComm daily-routine routers alongside Bubble Rap
and an Epidemic flooding baseline, a deterministic discrete-event engine over
contact traces, and the delivery/cost/latency evaluation pipeline.
"""

from .contacts import (
    ContactEvent,
    ContactTrace,
    RelationActivity,
    RoutineSpec,
    SampleConfig,
    SampleSlot,
    TraceFormatError,
    generate_routine_trace,
    load_contact_trace,
    parse_contact_trace,
    sample_slot_of,
    serialize_contact_trace,
    split_contact_by_samples,
)
from .engine import (
    BANDWIDTH_WIFI_11MBPS,
    EventLog,
    LogRecord,
    NodeRuntime,
    SimConfig,
    SimStartupError,
    Simulation,
    buffer_admit,
    run_simulation,
    transfer_within_contact,
)
from .ledger import LedgerOrderingError, PeerSampleStats, SocialLedger
from .metrics import (
    AggregateMetrics,
    MetricSummary,
    MetricsError,
    RunMetrics,
    aggregate_runs,
    compute_run_metrics,
)
from .routing import (
    CarrierState,
    PeerSummary,
    ROUTER_NAMES,
    RouterDecision,
    bubblerap_on_contact,
    decide,
    dlife_on_contact,
    dlifecomm_on_contact,
    epidemic_on_contact,
)
from .socialgraph import (
    CentralityTable,
    CommunityMap,
    WindowMeetings,
    build_familiar_graph,
    centrality_csv,
    communities_json,
    cumulative_window_centrality,
    k_clique_communities,
)
from .workload import (
    Message,
    WorkloadEntry,
    generate_workload,
    load_workload,
    messages_from_workload,
    parse_workload,
    serialize_workload,
)

__version__ = "0.1.0"
