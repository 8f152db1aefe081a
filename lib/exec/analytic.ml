(* Analytic evaluation of a plan: counters, timing, and achieved TFLOPS
   without touching any data — exact closed-form sums of the same per-block
   accounting the executor performs, so full-size (512^3 / 320^3) runs cost
   microseconds.  This is the function the profiler, the autotuner, and the
   benchmark harness all sit on. *)

module Plan = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module Estimate = Artemis_ir.Estimate
module Counters = Artemis_gpu.Counters
module Timing = Artemis_gpu.Timing
module Metrics = Artemis_obs.Metrics

let m_measures = Metrics.counter "exec.analytic_measures"

type measurement = {
  plan : Plan.t;
  counters : Counters.t;
  resources : Estimate.resources;
  breakdown : Timing.breakdown;
  time_s : float;
  tflops : float;
}

(** Measure a plan analytically.
    @raise Invalid_argument when the plan violates device limits. *)
let measure (plan : Plan.t) =
  Validate.check plan;
  Metrics.incr m_measures;
  let ctx = Traffic.make_ctx plan in
  let counters = Traffic.total_counters ctx in
  let workload = Traffic.workload ctx counters in
  let breakdown = Timing.evaluate plan.device workload in
  {
    plan;
    counters;
    resources = ctx.res;
    breakdown;
    time_s = breakdown.t_total;
    tflops = Timing.tflops workload breakdown;
  }

(** Measure, returning [None] instead of raising on invalid plans — the
    shape the tuner's search loops want. *)
let try_measure plan =
  match Validate.violations plan with
  | [] -> (
    try Some (measure plan) with
    | Invalid_argument _ | Kernel_exec.Unsupported _ -> None)
  | _ :: _ -> None

let pp_measurement fmt (m : measurement) =
  Format.fprintf fmt "@[<v>%s@ %.3f TFLOPS, %a@ occ %.3f (%d regs, %d B shm)@]"
    (Plan.label m.plan) m.tflops Timing.pp m.breakdown m.resources.occupancy.occupancy
    m.resources.effective_regs m.resources.shared_per_block
