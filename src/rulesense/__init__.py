"""Forward-chaining rule engine plus a sensor-fusion pipeline built on it:
sensor replay files in, location facts and timed corridor traversals out,
answered through named queries, a CLI, and a JSON service."""

from .facts import (
    DuplicateSlot,
    DuplicateTemplate,
    Fact,
    KbError,
    NIL,
    Symbol,
    Template,
    TemplateRegistry,
    UnknownSlot,
    UnknownTemplate,
    is_slot_value,
    make_fact,
    value_key,
)
from .lang import (
    Diagnostic,
    LexError,
    ParseError,
    format_construct,
    format_program,
    parse_program,
    validate_program,
)
from .engine import (
    AssertResult,
    DuplicateRuleName,
    Engine,
    ExplainNode,
    FireLogWriter,
    MissingParameter,
    NotDerived,
    QueryRow,
    RuntimeEvalError,
    UnknownFactId,
    UnknownParameter,
    UnknownQuery,
    ValidationFailed,
    WmView,
    WouldDuplicate,
    replay_firelog,
    wm_to_canonical_json,
)
from .ingest import (
    DUMMY_LOC,
    DuplicateDevice,
    FeedStats,
    MalformedRecord,
    MalformedRegistry,
    Registry,
    SensorRecord,
    bootstrap,
    initial_facts,
    load_registry,
    parse_record,
    replay,
    translate,
)
from .simulator import InvalidScenario, Lcg, Scenario, generate, load_scenario, true_traversals
from .tracking import build_tracking_kb, load_engine, run_pipeline, shaped_query
from .service import QueryService

__version__ = "0.1.0"
