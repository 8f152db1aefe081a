(** Block-level execution of a kernel plan over simulated global memory.

    Each thread block sweeps the (possibly fused) body over its output
    tile extended by the per-statement recomputation halo — the redundant
    work overlapped tiling performs — under the same guards as the
    reference executor, so a valid plan produces bit-identical final
    outputs.  Counters come from [Traffic], the same accounting the
    analytic evaluator uses. *)

(** Raised for body shapes the executor cannot re-execute idempotently
    under overlap (an intermediate first written by [+=]). *)
exception Unsupported of string

(** Execute the plan on the arrays in [store], updating final outputs
    (and global-placed intermediates) in place; returns the launch
    counters.  A temporally blocked plan ([Plan.temporal.degree > 1])
    executes [degree] time steps of its ping-pong pair per launch — via
    the streamed interleaved traversal when the body admits it, the
    exact per-step composition otherwise — and is charged the blocked
    launch's [Traffic] counters.  Statements execute under [mode]
    (default {!Eval.default_mode}).
    @raise Invalid_argument when the plan is not launchable
    @raise Unsupported per above *)
val run :
  ?mode:Eval.mode ->
  Artemis_ir.Plan.t -> Reference.store -> scalars:(string * float) list ->
  Artemis_gpu.Counters.t
