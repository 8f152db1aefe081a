(* Cheap measurement-free runtime prediction for a plan: the second
   counter source for the one clock, [Timing.evaluate].

   A full analytic measurement validates the plan, lints it, and sums
   exact counters over every block class.  Pre-ranking cannot afford
   that per candidate, so this sketches the counters instead: those of
   ONE representative (middle) block scaled to the whole grid.  The
   rest of the workload is the launch's own ([Traffic.workload]), so
   sketch and measurement differ in counters only.  Boundary blocks see
   clipped regions, so the sketch is biased slightly high on traffic —
   uniformly across candidates of one kernel, which is what ranking
   needs. *)

module Plan = Artemis_ir.Plan
module Counters = Artemis_gpu.Counters
module Timing = Artemis_gpu.Timing

let workload (p : Plan.t) =
  let ctx = Traffic.make_ctx p in
  let g = ctx.geom in
  let mid = Array.map (fun n -> n / 2) g.grid in
  let block = Traffic.block_counters ctx mid in
  Traffic.workload ctx (Counters.scale (float_of_int g.total_blocks) block)

(** Ranking score (lower is better) and predicted seconds.  The score is
    seconds per useful FLOP, not raw time: candidates covering different
    step counts per launch (temporal blocking, fusion) must compare on
    useful throughput — exactly the TFLOPS figure the measured search
    maximizes — or a degree-2 plan doing two sweeps' work in 1.5x the
    time would rank below the plan it beats. *)
let rank (p : Plan.t) =
  match workload p with
  | w ->
    let t = (Timing.evaluate p.device w).t_total in
    let useful = w.counters.useful_flops in
    ((if useful > 0.0 then t /. useful else t), t)
  | exception (Invalid_argument _ | Division_by_zero | Not_found) ->
    (infinity, infinity)
