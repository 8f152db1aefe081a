(** Process-wide metrics registry: counters, gauges, and fixed-bucket
    histograms, identified by name + label set.  Instrumented code holds
    handles (registered once at module init for hot paths); the registry
    serializes to a JSON snapshot for reports, benchmarks, and tests.

    The registry is always on — updates are a mutex-guarded float store
    on a handle — so enabling tracing never changes which metrics exist.
    All entry points are domain-safe; pool workers may update handles
    concurrently without losing increments. *)

type counter
type gauge
type histogram

(** Register (or look up) a counter.  Same name + labels returns the same
    handle, so registration is idempotent. *)
val counter : ?labels:(string * string) list -> string -> counter

val incr : ?by:float -> counter -> unit
val counter_value : counter -> float

val gauge : ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** Register a histogram with fixed upper-bound buckets (sorted
    ascending; an implicit +Inf bucket is appended).  [buckets] defaults
    to power-of-ten decades from 1e-6 to 1e3 — suitable for span
    durations in seconds. *)
val histogram : ?buckets:float array -> ?labels:(string * string) list -> string -> histogram

val observe : histogram -> float -> unit

(** (bucket upper bound, observations in that bucket) pairs, +Inf last.
    Counts are per-bucket, not cumulative. *)
val histogram_buckets : histogram -> (float * int) list

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** [histogram_quantile h q] estimates the [q]-quantile ([q] clamped to
    [0, 1]) by linear interpolation within the bucket holding the target
    rank — Prometheus [histogram_quantile] semantics, with the first
    bucket's lower edge taken as 0 (or its bound, if negative).  Ranks
    landing in the +Inf bucket clamp to the highest finite bound.
    [None] when the histogram is empty or has no finite bounds. *)
val histogram_quantile : histogram -> float -> float option

(** Zero every registered value (counts, sums, gauges).  Registrations —
    and therefore handles held by instrumented modules — stay valid. *)
val reset : unit -> unit

(** Snapshot of the whole registry:
    [{"counters": [...], "gauges": [...], "histograms": [...]}], each
    entry carrying name, labels, and value(s); entries sorted by name so
    the snapshot is deterministic. *)
val snapshot : unit -> Json.t
