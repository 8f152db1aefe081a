(** Counter accounting for one kernel launch under a plan.

    Every quantity derives from the launch geometry and staging layout
    ([Launch]), so the block executor and the whole-grid analytic
    evaluator charge exactly the same traffic.  Regions are axis-aligned
    boxes (per-block counts are products of 1-D interval lengths); global
    transactions are counted row-by-row through the coalescing model;
    DRAM traffic follows a working-set L2 model (which is what makes
    streaming-without-shared-memory lose to plain tiling, Section
    VIII-F). *)

(** Tunable constants of the DRAM/L2 model, exposed for ablation. *)
type model = {
  halo_miss : float;  (** fraction of a block's halo footprint missing L2 *)
  l2_hit_floor : float;  (** residual miss rate when the working set fits *)
}

val default_model : model
val model : model ref

(** Run [f] under a temporary model, restoring the previous one. *)
val with_model : model -> (unit -> 'a) -> 'a

(** Per-statement static description (exposed for the executor). *)
type stmt_info = {
  stmt : Artemis_dsl.Ast.stmt;
  flops : int;
  writes : string;
  write_is_final : bool;
  write_is_array : bool;
  region_ext : Artemis_dsl.Analysis.extent;  (** tile extension this statement covers *)
  guard_ext : Artemis_dsl.Analysis.extent;  (** min/max read shifts *)
  reads : (string * int array) list;
  fold_saved_flops : int;
}

type ctx = {
  plan : Artemis_ir.Plan.t;
  geom : Artemis_ir.Launch.geometry;
  bufs : Artemis_ir.Launch.buffer list;
  res : Artemis_ir.Estimate.resources;
  stmts : stmt_info list;
  fold_stage_flops : (string * int) list;
  concurrent_blocks : int;
  serial_waves : int;
      (** launch phases forced by self-dependences ([Wavefront]): 1 =
          fully independent blocks; a dependence along a grid dimension
          serializes the block grid into anti-diagonal phases — same
          bytes and flops, reduced parallelism per phase *)
  strides : (string * int array) list;
}

val make_ctx : Artemis_ir.Plan.t -> ctx

(** {1 Box arithmetic} *)

(** Inclusive (lo, hi) per dimension; empty when hi < lo. *)
type box = (int * int) array

val box_volume : box -> int
val box_inter : box -> box -> box

(** The block's output tile, clipped to the domain. *)
val tile_box : ctx -> int array -> box

(** Extend a box by an extent, clipping to the domain. *)
val extend_clip : ctx -> box -> Artemis_dsl.Analysis.extent -> box

(** [extend_clip] into a caller-owned scratch box — allocation-free, for
    per-block hot paths. *)
val extend_clip_into :
  ctx -> box -> Artemis_dsl.Analysis.extent -> box -> unit

(** {1 Accounting} *)

(** Counters charged to one block. *)
val block_counters : ctx -> int array -> Artemis_gpu.Counters.t

(** Whole-launch counters.  Summed over block equivalence classes (at
    most a few per dimension: boundary-influenced blocks individually,
    one representative for the identical middle); [exact] forces the full
    per-block loop (the class sum equals it — tested). *)
val total_counters : ?exact:bool -> ctx -> Artemis_gpu.Counters.t

(** The launch's [Timing] workload charged with [counters]: the one
    place occupancy, ILP, block count and serial waves are read off the
    plan, whether the counters are exact ([Analytic]) or sketched
    ([Predict]). *)
val workload : ctx -> Artemis_gpu.Counters.t -> Artemis_gpu.Timing.workload
