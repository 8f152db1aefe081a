(** Append-only decision journal: the provenance log behind
    [artemisc explain].

    Where {!Trace} answers "where did the time go", the journal answers
    "why this plan" — every tuner candidate, lint and static prune,
    pre-rank cut, cache outcome and DP tipping-point decision lands here
    as a structured event.  Events carry no timestamps and receive their
    sequence numbers at append time, so a run journals byte-identically
    at jobs=1 and jobs=N as long as appends happen on the main domain in
    canonical order.  Code that runs on pool workers must not append
    (arrival order would depend on scheduling); the tuner journals in
    its main-domain fold instead. *)

val enabled : unit -> bool

(** Clear the log and begin recording. *)
val start : unit -> unit

(** Stop recording; the accumulated events stay readable. *)
val stop : unit -> unit

(** [append kind fields] records one event and assigns it the next
    sequence number.  No-op when disabled. *)
val append : string -> (string * Json.t) list -> unit

(** Events as JSON objects in append order; each carries ["seq"] (dense
    from 0) and ["event"] followed by the event's own fields. *)
val events : unit -> Json.t list

val event_count : unit -> int

(** One compact JSON object per line, newline-terminated. *)
val to_jsonl : unit -> string

(** Write {!to_jsonl} to [path]. *)
val write : string -> unit

(** Parse JSONL back into event objects (blank lines ignored).
    @raise Json.Parse_error on a malformed line. *)
val parse_jsonl : string -> Json.t list

(** Read and {!parse_jsonl} a file. *)
val read : string -> Json.t list
