(** Process-wide metrics registry: counters and gauges, identified by
    name + label set.  Instrumented code holds
    handles (registered once at module init for hot paths); the registry
    serializes to a JSON snapshot for reports, benchmarks, and tests.

    The registry is always on — updates are a mutex-guarded float store
    on a handle — so enabling tracing never changes which metrics exist.
    All entry points are domain-safe; pool workers may update handles
    concurrently without losing increments. *)

type counter
type gauge

(** Register (or look up) a counter.  Same name + labels returns the same
    handle, so registration is idempotent. *)
val counter : ?labels:(string * string) list -> string -> counter

val incr : ?by:float -> counter -> unit
val counter_value : counter -> float

val gauge : ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** Zero every registered value (counters and gauges).  Registrations —
    and therefore handles held by instrumented modules — stay valid. *)
val reset : unit -> unit

(** Snapshot of the whole registry:
    [{"counters": [...], "gauges": [...]}], each entry carrying name,
    labels, and value; entries sorted by name so the snapshot is
    deterministic. *)
val snapshot : unit -> Json.t
