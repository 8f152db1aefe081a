(* Axis-aligned iteration-space boxes and interior/halo loop splitting.

   The executors sweep each statement over a clipped region of the
   iteration domain.  Evaluating the statement's guard (and the write's
   bounds check) at every point is pure waste on the bulk of the region:
   the set of points where every access is in bounds is itself a box, so
   the region decomposes into one guaranteed-in-bounds *interior* box and
   at most [2 * rank] boundary *shells* that keep the guarded per-point
   path — the host-side analogue of the guard elision ARTEMIS's generated
   CUDA performs on tile interiors (paper, Section III).

   All boxes are inclusive [(lo, hi)] intervals per dimension, empty when
   any [hi < lo] — the same convention as [Traffic.box]. *)

module Metrics = Artemis_obs.Metrics

type box = (int * int) array

let volume (b : box) =
  Array.fold_left (fun acc (lo, hi) -> if hi < lo then 0 else acc * (hi - lo + 1)) 1 b

let is_empty b = volume b = 0

let inter (a : box) (b : box) : box =
  Array.init (Array.length a) (fun d ->
      let alo, ahi = a.(d) and blo, bhi = b.(d) in
      (max alo blo, min ahi bhi))

(** The whole iteration space of [dims]. *)
let of_dims (dims : int array) : box = Array.map (fun n -> (0, n - 1)) dims

(** A canonically empty box of the given rank. *)
let empty rank : box = Array.make (max rank 1) (0, -1)

let contains (b : box) (p : int array) =
  let ok = ref true in
  Array.iteri
    (fun d c ->
      let lo, hi = b.(d) in
      if c < lo || c > hi then ok := false)
    p;
  !ok

(* Onion decomposition of [region] minus [interior]: shell [2d] takes the
   slab below the interior along dimension [d] and shell [2d+1] the slab
   above, with dimensions before [d] pinned to the interior range and
   dimensions after [d] spanning the full region.  Any region point lies
   in exactly one piece: walk dimensions outermost-in and stop at the
   first one where the point leaves the interior range. *)
let split ~(region : box) ~(interior : box) : box list =
  let r = Array.length region in
  if is_empty interior then if is_empty region then [] else [ region ]
  else begin
    let shells = ref [] in
    for d = r - 1 downto 0 do
      let piece range_d =
        Array.init r (fun d' ->
            if d' < d then interior.(d')
            else if d' > d then region.(d')
            else range_d)
      in
      let rlo, rhi = region.(d) and ilo, ihi = interior.(d) in
      let high = piece (ihi + 1, rhi) in
      if not (is_empty high) then shells := high :: !shells;
      let low = piece (rlo, ilo - 1) in
      if not (is_empty low) then shells := low :: !shells
    done;
    !shells
  end

(** Visit every point of [b] in lexicographic order.  The point array is
    a reused buffer ([point] when given) — valid only during the call. *)
let iter_points ?point (b : box) f =
  if not (is_empty b) then begin
    let r = Array.length b in
    let p = match point with Some p -> p | None -> Array.make r 0 in
    let rec go d =
      if d = r then f p
      else begin
        let lo, hi = b.(d) in
        for c = lo to hi do
          p.(d) <- c;
          go (d + 1)
        done
      end
    in
    go 0
  end

(** Visit every innermost-dimension row of [b] in lexicographic order:
    [f point n] receives the row's start point (innermost coordinate at
    the row's low bound; a reused buffer) and its length [n]. *)
let iter_rows ?point (b : box) f =
  if not (is_empty b) then begin
    let r = Array.length b in
    let p = match point with Some p -> p | None -> Array.make r 0 in
    let lo, hi = b.(r - 1) in
    let n = hi - lo + 1 in
    let rec go d =
      if d = r - 1 then begin
        p.(d) <- lo;
        f p n
      end
      else begin
        let dlo, dhi = b.(d) in
        for c = dlo to dhi do
          p.(d) <- c;
          go (d + 1)
        done
      end
    in
    go 0
  end

(* ------------------------------------------------------------------ *)
(* Split sweep driver                                                  *)
(* ------------------------------------------------------------------ *)

let m_interior = Metrics.counter "exec.interior_points"
let m_halo = Metrics.counter "exec.halo_points"
let m_wavefront = Metrics.counter "exec.wavefront_points"
let m_guarded = Metrics.counter "exec.guarded_points"
let m_eliminated = Metrics.counter "exec.eliminated_points"

let charge_interior n = Metrics.incr ~by:n m_interior
let charge_halo n = Metrics.incr ~by:n m_halo
let charge_wavefront n = Metrics.incr ~by:n m_wavefront
let charge_guarded n = Metrics.incr ~by:n m_guarded
let charge_eliminated n = Metrics.incr ~by:n m_eliminated

(** Guarded fallback sweep over a whole region (no interior carved out),
    charged to [exec.guarded_points] so the fallback path is counted
    apart from boundary shells. *)
let sweep_guarded ?point ~(region : box) guarded =
  iter_points ?point region guarded;
  charge_guarded (float_of_int (volume region))

(** Sweep [region] as [interior] rows (the unguarded fast path) plus
    boundary shells on the guarded per-point path.  [interior] must be a
    sub-box of [region] — callers obtain it by intersecting the region
    with the statement's in-bounds box.  Interior and halo point counts
    feed the [exec.interior_points] / [exec.halo_points] counters.

    [dead_shells] asserts the caller has proven (statically) that every
    shell point is a no-op — some access is out of bounds there, so the
    guarded body would fall through without writing.  The shells are then
    skipped entirely and their volume charged to
    [exec.eliminated_points]; output is bit-identical by construction.
    When [interior] is empty the proof covers the whole region. *)
let sweep ?point ?(dead_shells = false) ~(region : box) ~(interior : box)
    ~guarded ~row () =
  if is_empty interior then
    if dead_shells then charge_eliminated (float_of_int (volume region))
    else sweep_guarded ?point ~region guarded
  else begin
    List.iter
      (fun shell ->
        if dead_shells then charge_eliminated (float_of_int (volume shell))
        else begin
          iter_points ?point shell guarded;
          charge_halo (float_of_int (volume shell))
        end)
      (split ~region ~interior);
    iter_rows ?point interior row;
    charge_interior (float_of_int (volume interior))
  end
