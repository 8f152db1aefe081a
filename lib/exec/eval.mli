(** Expression evaluation at a domain point — shared by the reference
    executor and the block executor so both compute identical values.

    The executors evaluate through {!compile_stmt}, whose {!mode} picks
    one of four bit-identical paths: the point-wise interpreter
    ({!eval}/{!guard}, the differential baseline), the compile-once
    closures of {!compile}, and split interiors with and without
    static shell elimination. *)

(** Raised when an array read falls outside its grid; callers treat the
    statement as guarded off at that point. *)
exception Out_of_bounds

(** Raised (at compile time, or per point by the interpreter) on a call
    to an intrinsic that is not in [Check.intrinsics] or has the wrong
    arity — diagnosed ahead of execution as lint code A104. *)
exception Unknown_intrinsic of string

type env = {
  lookup_array : string -> Grid.t;  (** concrete array storage *)
  lookup_scalar : string -> float;  (** runtime scalar arguments *)
  lookup_temp : string -> float;  (** per-point temporaries; raises [Not_found] *)
  iters : string list;  (** kernel iterators, outermost first *)
}

(** Absolute coordinates of an access at a domain point. *)
val access_coords : env -> int array -> Artemis_dsl.Ast.index list -> int array

(** @raise Unknown_intrinsic on an unknown name or wrong arity. *)
val apply_intrinsic : string -> float list -> float

(** Evaluate at a point. @raise Out_of_bounds per above. *)
val eval : env -> int array -> Artemis_dsl.Ast.expr -> float

(** All array reads of the expression are in bounds at the point — the
    guard the generated CUDA emits. *)
val guard : env -> int array -> Artemis_dsl.Ast.expr -> bool

(** {1 Compile-once lowering} *)

(** How {!compile_stmt} executes a statement.  Every mode produces
    bit-identical grids; they differ in speed and in which [exec.*]
    point counters they charge.
    - [Interpreted]: per-point {!eval}/{!guard}, the pre-compilation
      baseline;
    - [Guarded]: {!compile}'s closures, every point guarded;
    - [Split_no_elim]: a guaranteed-in-bounds interior swept as
      flat-index rows, uniform self-dependences as wavefronts
      ({!Wavefront}), guarded boundary shells;
    - [Split]: as [Split_no_elim], plus skipping the shells that
      {!elim_proven} shows to be guard-failing no-ops. *)
type mode =
  | Interpreted
  | Guarded
  | Split_no_elim
  | Split

(** When set, {!default_mode} is [Interpreted]. *)
val use_interpreter : bool ref

(** The mode executors use when none is passed: [Interpreted] under
    {!use_interpreter}, [Split] otherwise. *)
val default_mode : unit -> mode

(** The mode splits interiors ([Split_no_elim] or [Split]). *)
val splits : mode -> bool

(** Name resolution for compilation, fixed before the sweep begins:
    [bind_temp] wins over [bind_scalar] for scalar references (temps
    shadow scalars), and [bind_array] must already apply whatever
    scratch/temp precedence the executor wants for array accesses. *)
type binder = {
  bind_array : string -> Grid.t;  (** array storage, temp grids included *)
  bind_temp : string -> Grid.t option;  (** per-point temporaries as grids *)
  bind_scalar : string -> float;
  binder_iters : string list;  (** kernel iterators, outermost first *)
}

type compiled = {
  cguard : int array -> bool;  (** all array reads in bounds at the point *)
  cvalue : int array -> float;  (** value; may raise [Out_of_bounds] *)
}

(** Lower an expression to closures with pre-resolved bindings and
    precomputed index offsets.  Compile once per statement per sweep;
    the closures reuse internal coordinate buffers, so they belong to
    one sequential sweep (each pool task compiles its own).
    @raise Unknown_intrinsic on an unknown intrinsic or wrong arity
    @raise Invalid_argument on unbound names or iterators *)
val compile : binder -> Artemis_dsl.Ast.expr -> compiled

(** {1 Flat-index split compilation}

    Inside a guaranteed-in-bounds interior box an affine access moves
    through its grid's flat [float array] with a fixed stride along the
    innermost iterator, so the interior sweeps as tight [for] loops over
    flat offsets with zero per-point checks — see [Region] for the
    region decomposition and docs/PERF.md for the full picture. *)

(** One access lowered to flat-index form: a per-row base offset plus a
    fixed per-point stride along the innermost iterator. *)
type access_path = {
  ap_grid : Grid.t;
  ap_spec : (int * int) array;
      (** per array dimension: [(iteration dim, shift)]; dim [-1] means a
          constant index *)
  ap_step : int;  (** flat-index stride per unit of the innermost iterator *)
  mutable ap_base : int;  (** flat index at the current row's start point *)
}

val access_path : binder -> Grid.t -> Artemis_dsl.Ast.index list -> access_path

(** Recompute [ap_base] for the row starting at [point]. *)
val path_bind_row : access_path -> int array -> unit

(** Intersect an iteration-space box with the region where every access
    of [paths] is in bounds — exactly the set the statement's guard
    accepts, which is itself a box.  A constant index outside its extent
    empties the result. *)
val clip_in_bounds : access_path list -> Region.box -> Region.box

(** A statement lowered for split execution. *)
type split_stmt = {
  ss_write : access_path;
  ss_expr : flat;
  ss_paths : access_path list;
      (** write plus reads — the in-bounds constraints for {!split_interior} *)
  ss_elim : bool;  (** compiled under [Split]: shells may be eliminated *)
}

and flat = {
  fbind : int array -> unit;  (** bind a row by its start point *)
  fat : int -> float;  (** value at offset [q] along the bound row *)
}

(** The sub-box of [region] where every access of the statement is in
    bounds (its unguarded interior). *)
val split_interior : split_stmt -> Region.box -> Region.box

(** True when the statement was compiled under [Split] and the affine
    analyzer, recomputing the statement's in-bounds footprint from the raw
    (extents, spec) pairs, lands on exactly [interior] (the executor's
    own {!clip_in_bounds} box for [region]).  Every region point outside
    [interior] is then provably a guard-failing no-op, so the shells can
    be skipped — two independent engines must agree before any guard is
    dropped; disagreement falls back to sweeping them. *)
val elim_proven :
  split_stmt -> region:Region.box -> interior:Region.box -> bool

(** Row bodies for [Region.sweep]'s [~row] argument: bind the row at
    [point], then assign (or accumulate) [n] points through flat
    indices. *)
val run_row_assign : split_stmt -> int array -> int -> unit

val run_row_accum : split_stmt -> int array -> int -> unit

(** {1 Unified statement compilation}

    One entry point deciding how a statement sweeps: order-independent
    statements split (interior rows + guarded shells), uniform
    self-dependent statements take the wavefront schedule under a legal
    hyperplane, everything else stays guarded per point. *)

type stmt_class =
  | Sc_split of split_stmt  (** order-independent: interior/halo split *)
  | Sc_wavefront of split_stmt * int array
      (** uniform self-dependence under the given outer-dimension
          hyperplane ({!Wavefront.sweep}) *)
  | Sc_guarded  (** whole-region guarded per-point fallback *)

type stmt_exec = {
  sx_class : stmt_class;
  sx_guarded : int array -> unit;
      (** guarded per-point body — shells, wavefront row ends, fallback *)
  sx_row : int array -> int -> unit;
      (** flat row body; [Invalid_argument] under [Sc_guarded] *)
}

(** Uniform self-dependence distances (read point minus write point) of
    a statement from its physical access paths, or [None] when the
    wavefront schedule does not apply (write does not cover every
    iteration dimension, or a target-aliased read is not a constant
    offset of the write). *)
val self_deltas :
  rank:int ->
  target:Grid.t ->
  wspec:(int * int) array ->
  access_path list ->
  int array list option

(** Compile [target[idx] = e] (or [+=] under [accum]) into its guarded
    closure plus schedule class under [mode].  Only the splitting modes
    classify: a statement whose sweep order is unobservable (the write
    covers every iteration dimension or no read varies along the ones it
    misses, and any read aliasing [target] uses the write's own index)
    is [Sc_split]; one with uniform self-dependences under a legal
    hyperplane is [Sc_wavefront]; everything else, and every statement
    under [Interpreted] or [Guarded], is [Sc_guarded].  The compiled
    closures share one plan cache.  Like {!compile}, the result reuses
    internal buffers and belongs to one sequential sweep: parallel
    wavefront bands each compile their own instance.
    @raise Unknown_intrinsic / [Invalid_argument] as {!compile} *)
val compile_stmt :
  mode:mode ->
  binder ->
  target:Grid.t ->
  accum:bool ->
  Artemis_dsl.Ast.index list ->
  Artemis_dsl.Ast.expr ->
  stmt_exec
