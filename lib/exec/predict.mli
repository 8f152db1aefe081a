(** Measurement-free runtime prediction for candidate plans: the same
    clock as [Analytic] ([Timing.evaluate]) fed sketched counters — one
    representative block's traffic scaled to the grid.  The tuner
    pre-ranks candidates with it before paying a full
    [Analytic.try_measure]; see docs/MODEL.md. *)

(** The sketched workload: [Analytic.measure]'s workload with the exact
    whole-grid counters replaced by the middle block's, scaled by the
    block count.
    @raise Invalid_argument on plans whose geometry cannot be built. *)
val workload : Artemis_ir.Plan.t -> Artemis_gpu.Timing.workload

(** [(score, predicted_seconds)] for pre-ranking: the score is seconds
    per useful FLOP (lower is better), so plans covering different step
    counts per launch compare on useful throughput.  Both components are
    [infinity] for plans the sketch cannot price — they sort last, where
    the measurement path would reject them.  Pure and deterministic:
    safe to evaluate in worker domains. *)
val rank : Artemis_ir.Plan.t -> float * float
