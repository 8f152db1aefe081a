(** Axis-aligned iteration-space boxes and interior/halo loop splitting.

    A statement's clipped region decomposes into one guaranteed-in-bounds
    {e interior} box (swept row-wise with zero per-point checks) plus at
    most [2 * rank] boundary {e shells} that keep the guarded per-point
    path — the host-side analogue of the guard elision ARTEMIS's
    generated CUDA performs on tile interiors (paper, Section III). *)

(** Inclusive [(lo, hi)] interval per dimension; empty when any
    [hi < lo] — the same convention as [Traffic.box]. *)
type box = (int * int) array

val volume : box -> int
val is_empty : box -> bool

(** Per-dimension intersection. *)
val inter : box -> box -> box

(** The whole iteration space of [dims]. *)
val of_dims : int array -> box

(** A canonically empty box of the given rank. *)
val empty : int -> box

val contains : box -> int array -> bool

(** Onion decomposition of [region] minus [interior] into at most
    [2 * rank] shells: together with [interior] they partition [region]
    exactly (every point in exactly one piece — pinned by the partition
    property test).  [interior] must be a sub-box of [region]; when it is
    empty the whole region comes back as a single shell. *)
val split : region:box -> interior:box -> box list

(** Visit every point in lexicographic order.  The point array is a
    reused buffer ([point] when given) — valid only during the call. *)
val iter_points : ?point:int array -> box -> (int array -> unit) -> unit

(** Visit every innermost-dimension row in lexicographic order:
    [f point n] receives the row's start point (innermost coordinate at
    the row's low bound; a reused buffer) and the row length [n]. *)
val iter_rows : ?point:int array -> box -> (int array -> int -> unit) -> unit

(** Charge [n] points to [exec.wavefront_points] (flat row segments run
    inside a wavefront) / [exec.halo_points].  Exposed for the
    {!Wavefront} driver, which accounts its points centrally on the
    calling domain so parallel bands count the same as the serial
    sweep. *)
val charge_wavefront : float -> unit

val charge_halo : float -> unit

(** Charge [n] points to [exec.eliminated_points] — region points
    skipped under a static proof that their guard must fail.  Exposed
    for the {!Wavefront} driver's elided sweeps. *)
val charge_eliminated : float -> unit

(** Guarded fallback sweep over a whole region (no interior carved out),
    charged to the [exec.guarded_points] counter — the dependent-stencil
    fallback path, reported distinctly from boundary shells. *)
val sweep_guarded : ?point:int array -> region:box -> (int array -> unit) -> unit

(** Sweep [region] as [interior] rows (the unguarded fast path, [row])
    plus boundary shells on the guarded per-point path ([guarded]).
    [interior] must be a sub-box of [region] — intersect first.  Point
    counts feed [exec.interior_points] / [exec.halo_points].

    [dead_shells] (default false) asserts a static proof that every
    shell point is a guard-failing no-op: the shells are skipped and
    charged to [exec.eliminated_points] instead of being swept. *)
val sweep :
  ?point:int array ->
  ?dead_shells:bool ->
  region:box ->
  interior:box ->
  guarded:(int array -> unit) ->
  row:(int array -> int -> unit) ->
  unit ->
  unit
