(** Content-addressed memoization of {!Artemis_exec.Analytic.try_measure}.

    A measurement is a pure function of the traffic model in force and the
    plan (the device lives inside the plan), so entries are keyed on the
    canonical [Marshal.No_sharing] bytes of that pair — structurally equal
    plans share an entry, and the full key string is collision-free by
    construction.  Hits and misses feed the [tuner.cache_hit] /
    [tuner.cache_miss] counters and, when tracing is on, "tuner.cache"
    instant events.

    Domain-safe: the table is mutex-guarded, so pool workers measuring
    candidates concurrently share one cache. *)

(** Canonical content key for a plan under the current traffic model.
    Exposed for the cache-correctness tests. *)
val key_of : Artemis_ir.Plan.t -> string

(** Memoized [try_measure]: a repeated (model, plan) pair — including one
    that measured invalid — costs a lookup, not a re-evaluation. *)
val try_measure : Artemis_ir.Plan.t -> Artemis_exec.Analytic.measurement option

(** [try_measure] plus whether the cache answered, so callers folding on
    the main domain can journal the outcome in canonical order. *)
val try_measure_outcome :
  Artemis_ir.Plan.t -> Artemis_exec.Analytic.measurement option * [ `Hit | `Miss ]

(** Also persist entries under this directory (created if missing);
    [None] turns the disk store off.  Stored entries start with a header
    naming the format and the shape of [Analytic.measurement], checked
    before the payload is unmarshalled, and carry their full key,
    verified on load; a stale format, a truncated file or a digest
    collision is a miss.  Each entry is written through its own temp file
    and renamed into place, so processes may share the directory. *)
val set_dir : string option -> unit

(** Drop all in-memory entries; the on-disk store is untouched. *)
val clear : unit -> unit

(** Number of in-memory entries (for tests and reports). *)
val size : unit -> int
