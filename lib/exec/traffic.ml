(* Counter accounting for one kernel launch under a plan.

   Every quantity is derived from the launch geometry and staging layout
   (Launch), so the block executor and the whole-grid analytic evaluator
   charge exactly the same traffic.  All regions are axis-aligned boxes,
   so per-block counts are products of 1-D interval lengths; global
   transactions are counted row-by-row through the coalescing model.

   DRAM model: staged arrays cost their unique block footprint (tile plus
   a halo share that misses L2 when neighbouring blocks run far apart);
   unstaged reads additionally pay for intra-block reuse that spills out
   of L2, with the working set computed from the number of concurrently
   resident blocks — this is what makes streaming-without-shared-memory
   lose to plain tiling (paper, Section VIII-F). *)

module A = Artemis_dsl.Ast
module An = Artemis_dsl.Analysis
module Plan = Artemis_ir.Plan
module Launch = Artemis_ir.Launch
module Estimate = Artemis_ir.Estimate
module Counters = Artemis_gpu.Counters
module Coalesce = Artemis_gpu.Coalesce

let elem_bytes = 8

(** Tunable constants of the DRAM/L2 model, exposed for the ablation
    benchmarks (bench/main.exe -- ablation).  [halo_miss] is the fraction
    of a block's halo footprint that misses L2 (neighbouring blocks are
    rarely co-resident among thousands in flight); [l2_hit_floor] is the
    residual miss rate even when a reuse working set fits in L2. *)
type model = {
  halo_miss : float;
  l2_hit_floor : float;
}

let default_model = { halo_miss = 0.7; l2_hit_floor = 0.05 }

(* Mutable so ablation studies can sweep it; every normal path reads the
   default. *)
let model = ref default_model

let with_model m f =
  let saved = !model in
  model := m;
  Fun.protect ~finally:(fun () -> model := saved) f

let halo_miss () = !model.halo_miss

(* Per-statement static description. *)
type stmt_info = {
  stmt : A.stmt;
  flops : int;
  writes : string;
  write_is_final : bool;
  write_is_array : bool;  (** false for temporaries *)
  region_ext : An.extent;  (** extension of the tile this statement covers *)
  guard_ext : An.extent;  (** min/max read shifts: where the statement runs *)
  reads : (string * int array) list;  (** array reads with iterator offsets *)
  fold_saved_flops : int;  (** combine ops moved to staging by folding *)
}

type ctx = {
  plan : Plan.t;
  geom : Launch.geometry;
  bufs : Launch.buffer list;
  res : Estimate.resources;
  stmts : stmt_info list;
  fold_stage_flops : (string * int) list;  (** leader array -> ops per staged elem *)
  concurrent_blocks : int;
  serial_waves : int;
      (** launch phases forced by self-dependences: 1 = fully independent
          blocks; a dependence along a grid dimension serializes the
          block grid into that many wavefront phases (same bytes/flops,
          reduced parallelism per phase) *)
  strides : (string * int array) list;  (** row-major strides per array *)
}

let buffer_of ctx name = List.find_opt (fun (b : Launch.buffer) -> b.array = name) ctx.bufs

let strides_of dims =
  let r = Array.length dims in
  let s = Array.make r 1 in
  for d = r - 2 downto 0 do
    s.(d) <- s.(d + 1) * dims.(d + 1)
  done;
  s

(* Iterator-space offsets of reads in one statement. *)
let stmt_reads iters stmt =
  A.fold_stmt_exprs
    (fun acc e ->
      acc
      @ List.map
          (fun (a : An.access) -> (a.array, An.offset_vector iters a))
          (An.accesses_of_expr e))
    [] stmt

let guard_ext_of rank reads =
  let e = An.zero_extent rank in
  List.iter
    (fun (_, (off : int array)) ->
      Array.iteri
        (fun d s ->
          let lo, hi = e.(d) in
          e.(d) <- (min lo s, max hi s))
        off)
    reads;
  e

(* Chain combine-ops per point saved by folding: each occurrence of a fold
   group in a statement replaces (n-1) combines with one staged read. *)
let fold_savings (p : Plan.t) stmt =
  if p.fold = [] then 0
  else begin
    let k = p.kernel in
    ignore k;
    let saved = ref 0 in
    let rec scan (e : A.expr) =
      match e with
      | A.Bin (op, _, _) when op = A.Mul || op = A.Add ->
        let rec flatten = function
          | A.Bin (o, a, b) when o = op -> flatten a @ flatten b
          | other -> [ other ]
        in
        let parts = flatten e in
        let arrays =
          List.filter_map (function A.Access (a, _) -> Some a | _ -> None) parts
        in
        let matched =
          List.exists
            (fun (gop, members) ->
              gop = op && List.for_all (fun m -> List.mem m arrays) members)
            p.fold
        in
        (match
           List.find_opt
             (fun (gop, members) ->
               gop = op && List.for_all (fun m -> List.mem m arrays) members)
             p.fold
         with
         | Some (_, members) when matched -> saved := !saved + (List.length members - 1)
         | _ -> ());
        List.iter scan parts
      | A.Bin (_, e1, e2) -> scan e1; scan e2
      | A.Neg e1 -> scan e1
      | A.Call (_, args) -> List.iter scan args
      | A.Const _ | A.Scalar_ref _ | A.Access _ -> ()
    in
    A.fold_stmt_exprs (fun () e -> scan e) () stmt;
    !saved
  end

let make_ctx (p : Plan.t) =
  let k = p.kernel in
  let rank = Array.length k.domain in
  let geom = Launch.geometry p in
  let bufs = Launch.buffers p in
  let res = Estimate.resources p in
  let exts = An.required_extents k in
  let finals = Launch.final_outputs k in
  let arrays = List.map fst k.arrays in
  let stmts =
    List.map
      (fun stmt ->
        let writes =
          match stmt with
          | A.Decl_temp (n, _) -> n
          | A.Assign (a, _, _) | A.Accum (a, _, _) -> a
        in
        let reads = stmt_reads k.iters stmt in
        {
          stmt;
          flops = An.flops_of_stmt stmt;
          writes;
          write_is_final = List.mem writes finals;
          write_is_array = List.mem writes arrays;
          region_ext =
            (match Hashtbl.find_opt exts writes with
             | Some e -> e
             | None -> An.zero_extent rank);
          guard_ext = guard_ext_of rank reads;
          reads;
          fold_saved_flops = fold_savings p stmt;
        })
      k.body
  in
  let fold_stage_flops =
    List.filter_map
      (fun (_, members) ->
        match members with
        | leader :: _ :: _ -> Some (leader, List.length members - 1)
        | _ -> None)
      p.fold
  in
  let concurrent_blocks =
    min geom.total_blocks (max 1 (res.occupancy.blocks_per_sm * p.device.sms))
  in
  (* Self-dependent statements serialize the block grid along every
     dimension a dependence distance moves through: blocks on the same
     anti-diagonal can still run together, so the launch decomposes into
     [1 + sum (grid_d - 1)] wavefront phases over the dependent
     dimensions.  Bytes and flops are unchanged — only parallelism per
     phase drops (Timing's wavefront kernel class). *)
  let serial_waves =
    let dep_dims = Array.make (max rank 1) false in
    List.iter
      (fun stmt ->
        match Wavefront.stmt_self_deps ~iters:k.iters stmt with
        | Wavefront.No_dep -> ()
        | Wavefront.Non_uniform -> Array.fill dep_dims 0 rank true
        | Wavefront.Uniform deltas ->
          List.iter
            (fun delta ->
              Array.iteri
                (fun d c -> if c <> 0 && d < rank then dep_dims.(d) <- true)
                delta)
            deltas)
      k.body;
    let waves = ref 1 in
    for d = 0 to rank - 1 do
      if dep_dims.(d) then waves := !waves + (geom.grid.(d) - 1)
    done;
    !waves
  in
  {
    plan = p; geom; bufs; res; stmts; fold_stage_flops; concurrent_blocks;
    serial_waves;
    strides = List.map (fun (a, dims) -> (a, strides_of dims)) k.arrays;
  }

(* ------------------------------------------------------------------ *)
(* Box arithmetic                                                      *)
(* ------------------------------------------------------------------ *)

(* A box is (lo, hi) inclusive per dimension; empty when hi < lo. *)
type box = (int * int) array

let box_volume (b : box) =
  Array.fold_left (fun acc (lo, hi) -> if hi < lo then 0 else acc * (hi - lo + 1)) 1 b

let box_inter (a : box) (b : box) =
  Array.init (Array.length a) (fun d ->
      let alo, ahi = a.(d) and blo, bhi = b.(d) in
      (max alo blo, min ahi bhi))

(* The block's output tile as a box, clipped to the domain. *)
let tile_box ctx (block : int array) : box =
  Array.init ctx.geom.rank (fun d ->
      let lo = block.(d) * ctx.geom.tile.(d) in
      let hi = min (ctx.geom.domain.(d) - 1) (lo + ctx.geom.tile.(d) - 1) in
      (lo, hi))

(* Extend a box by an extent, clipping to the domain. *)
let extend_clip ctx (b : box) (e : An.extent) : box =
  Array.init ctx.geom.rank (fun d ->
      let lo, hi = b.(d) in
      let elo, ehi = e.(d) in
      (max 0 (lo + elo), min (ctx.geom.domain.(d) - 1) (hi + ehi)))

(* In-place [extend_clip] into a caller-owned scratch box: the block
   executor calls this once per statement per block, so it must not
   allocate. *)
let extend_clip_into ctx (b : box) (e : An.extent) (out : box) =
  for d = 0 to ctx.geom.rank - 1 do
    let lo, hi = b.(d) in
    let elo, ehi = e.(d) in
    out.(d) <- (max 0 (lo + elo), min (ctx.geom.domain.(d) - 1) (hi + ehi))
  done

(* Region where a statement's guard holds: reads at guard_ext must stay in
   the arrays.  Conservatively use the iteration-domain interior implied by
   the guard extents (index arithmetic on same-extent arrays). *)
let guard_box ctx (gext : An.extent) : box =
  Array.init ctx.geom.rank (fun d ->
      let lo, hi = gext.(d) in
      (max 0 (-lo), ctx.geom.domain.(d) - 1 - max 0 hi))

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

(* 32-byte sectors to read/write box [b] of array [a] row by row (runs
   along the innermost array dimension).  Arrays of lower rank than the
   domain are addressed by their own trailing dimensions. *)
let box_sectors ctx array_name (b : box) =
  match List.assoc_opt array_name ctx.strides with
  | None -> 0
  | Some strides ->
    let arank = Array.length strides in
    let r = ctx.geom.rank in
    (* Use the trailing [arank] dimensions of the box. *)
    let off = r - arank in
    if off < 0 then 0
    else begin
      let width =
        let lo, hi = b.(r - 1) in
        hi - lo + 1
      in
      if width <= 0 then 0
      else begin
        let rows = ref 1 in
        for d = off to r - 2 do
          let lo, hi = b.(d) in
          if hi < lo then rows := 0 else rows := !rows * (hi - lo + 1)
        done;
        if !rows = 0 then 0
        else begin
          (* Row alignment repeats with the array's x-stride; sample one
             row start per distinct alignment class instead of looping all
             rows (exact when the y-stride is sector-aligned, which holds
             for all power-of-two and 320-sized domains). *)
          let first_in_row =
            let idx = ref 0 in
            for d = off to r - 1 do
              idx := !idx + (fst b.(d) * strides.(d - off))
            done;
            !idx
          in
          let per = Coalesce.elems_per_sector ~elem_bytes in
          let ystride = if arank >= 2 then strides.(arank - 2) else 0 in
          if arank >= 2 && ystride mod per = 0 then
            !rows * Coalesce.run_sectors ~elem_bytes ~first:first_in_row ~n:width
          else begin
            (* Misaligned rows: mix of the two possible sector counts. *)
            let s0 = Coalesce.run_sectors ~elem_bytes ~first:0 ~n:width in
            let s1 = Coalesce.run_sectors ~elem_bytes ~first:1 ~n:width in
            let even = (!rows + 1) / 2 in
            (even * s0) + ((!rows - even) * s1)
          end
        end
      end
    end

(* ------------------------------------------------------------------ *)
(* Per-block accounting                                                *)
(* ------------------------------------------------------------------ *)

(* Staged-load box of an array: the tile extended by the array's read
   extent (planes load once per block when streaming, the full halo tile
   otherwise). *)
let staged_box ctx (b : Launch.buffer) tile =
  extend_clip ctx tile b.extent

let is_staged (b : Launch.buffer) =
  match b.staging with
  | Launch.Stage_tile _ | Launch.Stage_stream _ -> true
  | Launch.Stage_global | Launch.Stage_const | Launch.Stage_fold_member _ -> false

(* Reads of [offset] hit shared memory (vs a register plane / fold alias)? *)
let read_cost ctx array_name (off : int array) =
  match buffer_of ctx array_name with
  | None -> `Global
  | Some b -> (
    match b.staging with
    | Launch.Stage_global -> `Global
    | Launch.Stage_const -> `Const
    | Launch.Stage_fold_member leader -> (
      (* The chain reads the leader's buffer once; members are free. *)
      match buffer_of ctx leader with
      | Some lb when is_staged lb -> `Free
      | _ -> `Global)
    | Launch.Stage_tile _ -> `Shared
    | Launch.Stage_stream { shared_planes; reg_planes; _ } -> (
      match Plan.stream_dim ctx.plan with
      | None -> `Shared
      | Some s ->
        if ctx.plan.retime then `Shared
        else if List.mem off.(s) reg_planes then `Reg
        else if List.mem off.(s) shared_planes then `Shared
        else `Shared))

(** Counters charged to one block. *)
let block_counters ctx (block : int array) =
  let p = ctx.plan in
  let tile = tile_box ctx block in
  if box_volume tile = 0 then Counters.zero
  else begin
    let fl = ref 0.0 and ufl = ref 0.0 in
    let gld_elems = ref 0.0 and gst_elems = ref 0.0 in
    let gld_tx = ref 0.0 and gst_tx = ref 0.0 in
    let shm_ld = ref 0.0 and shm_st = ref 0.0 in
    (* Load- and store-side DRAM kept apart: temporal blocking scales them
       differently (inputs staged once per b steps, output stored once). *)
    let dram_ld = ref 0.0 and dram_st = ref 0.0 in
    (* Output perspective issues the x-halo of each staged row as separate
       narrow transactions (boundary threads re-load); input and mixed
       perspectives cover the whole input row with contiguous threads
       (Section III-B3). *)
    let persp_extra_tx sbox (b : Launch.buffer) =
      match p.perspective with
      | Plan.Input_persp | Plan.Mixed_persp -> 0
      | Plan.Output_persp ->
        let r = ctx.geom.rank in
        let lo_x, hi_x = b.extent.(r - 1) in
        if lo_x = 0 && hi_x = 0 then 0
        else begin
          let rows = ref 1 in
          for d = 0 to r - 2 do
            let lo, hi = sbox.(d) in
            if hi < lo then rows := 0 else rows := !rows * (hi - lo + 1)
          done;
          let segments = (if lo_x < 0 then 1 else 0) + (if hi_x > 0 then 1 else 0) in
          !rows * segments
        end
    in
    (* --- staged loads: once per block --- *)
    List.iter
      (fun (b : Launch.buffer) ->
        match b.staging with
        | Launch.Stage_tile _ | Launch.Stage_stream _ ->
          let sbox = staged_box ctx b tile in
          let v = float_of_int (box_volume sbox) in
          gld_elems := !gld_elems +. v;
          gld_tx :=
            !gld_tx +. float_of_int (box_sectors ctx b.array sbox + persp_extra_tx sbox b);
          (match b.staging with
           | Launch.Stage_stream { shared_planes = []; _ } -> ()
           | _ ->
             (* pointer-rotated window: each value enters shared once *)
             shm_st := !shm_st +. v);
          (* staging-time folding combines *)
          (match List.assoc_opt b.array ctx.fold_stage_flops with
           | Some ops -> fl := !fl +. (float_of_int ops *. v)
           | None -> ());
          (* DRAM: unique footprint; the halo share beyond the tile may be
             refetched by neighbours without hitting L2. *)
          let vt = float_of_int (box_volume (box_inter sbox tile)) in
          dram_ld := !dram_ld +. ((vt +. (halo_miss () *. (v -. vt))) *. float_of_int elem_bytes)
        | Launch.Stage_fold_member _ ->
          (* loaded once during the leader's staging pass *)
          let sbox = extend_clip ctx tile b.extent in
          let v = float_of_int (box_volume sbox) in
          gld_elems := !gld_elems +. v;
          gld_tx := !gld_tx +. float_of_int (box_sectors ctx b.array sbox);
          let vt = float_of_int (box_volume (box_inter sbox tile)) in
          dram_ld := !dram_ld +. ((vt +. (halo_miss () *. (v -. vt))) *. float_of_int elem_bytes)
        | Launch.Stage_global | Launch.Stage_const -> ())
      ctx.bufs;
    (* --- per-statement compute and per-use traffic --- *)
    let unstaged_unique : (string, box) Hashtbl.t = Hashtbl.create 8 in
    let unstaged_uses : (string, float) Hashtbl.t = Hashtbl.create 8 in
    (* Retimed kernels read each incoming plane once per distinct in-plane
       offset, feeding every accumulator: dedupe across the whole body. *)
    let seen_inplane : (string * int array, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun si ->
        let region = box_inter (extend_clip ctx tile si.region_ext) (guard_box ctx si.guard_ext) in
        let n = box_volume region in
        if n > 0 then begin
          let nf = float_of_int n in
          let useful_box = box_inter region tile in
          let nu = float_of_int (box_volume useful_box) in
          fl := !fl +. (float_of_int (si.flops - si.fold_saved_flops) *. nf);
          ufl := !ufl +. (float_of_int si.flops *. nu);
          (* output stores *)
          if si.write_is_final then begin
            gst_elems := !gst_elems +. nu;
            gst_tx := !gst_tx +. float_of_int (box_sectors ctx si.writes useful_box);
            dram_st := !dram_st +. (nu *. float_of_int elem_bytes)
          end
          else if si.write_is_array then begin
            match buffer_of ctx si.writes with
            | Some b when is_staged b ->
              (* intermediate kept in shared scratch *)
              shm_st := !shm_st +. nf
            | _ ->
              (* intermediate in global memory: redundant halo stores too *)
              gst_elems := !gst_elems +. nf;
              gst_tx := !gst_tx +. float_of_int (box_sectors ctx si.writes region);
              dram_st := !dram_st +. (nf *. float_of_int elem_bytes)
          end;
          (* reads *)
          List.iter
            (fun (aname, off) ->
              match read_cost ctx aname off with
              | `Free | `Const | `Reg -> ()
              | `Shared ->
                if p.retime then begin
                  (* one shared read per distinct in-plane offset *)
                  let inplane = Array.copy off in
                  (match Plan.stream_dim p with
                   | Some s -> inplane.(s) <- 0
                   | None -> ());
                  if not (Hashtbl.mem seen_inplane (aname, inplane)) then begin
                    Hashtbl.replace seen_inplane (aname, inplane) ();
                    shm_ld := !shm_ld +. nf
                  end
                end
                else shm_ld := !shm_ld +. nf
              | `Global ->
                gld_elems := !gld_elems +. nf;
                let shifted =
                  Array.init ctx.geom.rank (fun d ->
                      let lo, hi = region.(d) in
                      (lo + off.(d), hi + off.(d)))
                in
                gld_tx := !gld_tx +. float_of_int (box_sectors ctx aname shifted);
                (* track unique footprint and total uses for the L2 model *)
                let ubox =
                  match Hashtbl.find_opt unstaged_unique aname with
                  | Some b0 ->
                    Array.init ctx.geom.rank (fun d ->
                        let alo, ahi = b0.(d) and blo, bhi = shifted.(d) in
                        (min alo blo, max ahi bhi))
                  | None -> shifted
                in
                Hashtbl.replace unstaged_unique aname ubox;
                let u = try Hashtbl.find unstaged_uses aname with Not_found -> 0.0 in
                Hashtbl.replace unstaged_uses aname (u +. nf))
            si.reads
        end)
      ctx.stmts;
    (* --- L2 / DRAM model for unstaged reads --- *)
    let l2 = float_of_int p.device.l2_bytes in
    Hashtbl.iter
      (fun aname ubox ->
        let unique = float_of_int (box_volume ubox) in
        let uses = try Hashtbl.find unstaged_uses aname with Not_found -> unique in
        let reuse = Float.max 0.0 (uses -. unique) in
        (* working set: every concurrently resident block keeps its reuse
           window live in L2 *)
        let window_bytes =
          match Plan.stream_dim p with
          | Some s ->
            (* live planes of this array per block *)
            let lo, hi = ubox.(s) in
            let planes = float_of_int (min (hi - lo + 1) 9) in
            let slice =
              float_of_int (box_volume ubox)
              /. float_of_int (max 1 (hi - lo + 1))
            in
            planes *. slice *. float_of_int elem_bytes
          | None -> unique *. float_of_int elem_bytes
        in
        let ws = float_of_int ctx.concurrent_blocks *. window_bytes in
        let miss =
          if ws <= l2 then !model.l2_hit_floor
          else Float.min 1.0 ((ws -. l2) /. ws)
        in
        let vt = float_of_int (box_volume (box_inter ubox tile)) in
        let halo_unique = Float.max 0.0 (unique -. vt) in
        dram_ld :=
          !dram_ld
          +. ((vt +. (halo_miss () *. halo_unique) +. (miss *. reuse)) *. float_of_int elem_bytes))
      unstaged_unique;
    let syncs = ref (float_of_int (Launch.syncs_per_block p ctx.geom ctx.bufs)) in
    let spill_scale = ref 1.0 in
    (* --- degree-N temporal blocking (AN5D): one launch covers [degree]
       inner time steps.  Compute repeats per step — inflated by the
       trapezoid halo volume under redundant recompute; inputs are staged
       once with the halo grown to degree x extent (recompute) or
       refreshed per step through a one-deep halo-ring exchange; the
       final output is stored once per launch. *)
    let tb = p.temporal in
    if tb.degree > 1 then begin
      let b = tb.degree in
      let r = ctx.geom.rank in
      (* per-side halo of the staged inputs along each dimension *)
      let ext =
        Array.init r (fun d ->
            List.fold_left
              (fun acc (buf : Launch.buffer) ->
                let lo, hi = buf.extent.(d) in
                max acc (max (-lo) hi))
              0 ctx.bufs)
      in
      let vol m =
        float_of_int
          (box_volume
             (Array.init r (fun d ->
                  let lo, hi = tile.(d) in
                  ( max 0 (lo - (m * ext.(d))),
                    min (ctx.geom.domain.(d) - 1) (hi + (m * ext.(d))) ))))
      in
      let tile_v = vol 0 in
      let flop_scale, load_scale, ring_elems =
        match tb.halo with
        | Plan.Halo_recompute ->
          (* step s computes tile + (b-s) x ext per side; the input is
             staged once with its halo grown to b x ext *)
          let sum = ref 0.0 in
          for s = 1 to b do
            sum := !sum +. (vol (b - s) /. tile_v)
          done;
          (!sum, vol b /. vol 1, 0.0)
        | Plan.Halo_exchange ->
          (* every step computes exactly the tile; each of the b-1
             intermediate steps exchanges the one-deep halo ring *)
          (float_of_int b, 1.0, float_of_int (b - 1) *. (vol 1 -. tile_v))
      in
      let ring_tx =
        ring_elems /. float_of_int (Coalesce.elems_per_sector ~elem_bytes)
      in
      fl := !fl *. flop_scale;
      ufl := !ufl *. float_of_int b;
      shm_ld := !shm_ld *. flop_scale;
      shm_st := !shm_st *. flop_scale;
      gld_elems := (!gld_elems *. load_scale) +. ring_elems;
      gld_tx := (!gld_tx *. load_scale) +. ring_tx;
      dram_ld := (!dram_ld *. load_scale) +. (ring_elems *. float_of_int elem_bytes);
      gst_elems := !gst_elems +. ring_elems;
      gst_tx := !gst_tx +. ring_tx;
      dram_st := !dram_st +. (ring_elems *. float_of_int elem_bytes);
      syncs := !syncs *. float_of_int b;
      spill_scale := flop_scale
    end;
    (* --- spills --- *)
    let out_pts = float_of_int (box_volume tile) in
    let spill =
      float_of_int ctx.res.spilled_doubles *. 16.0 *. out_pts *. !spill_scale
    in
    {
      Counters.useful_flops = !ufl;
      total_flops = !fl;
      dram_bytes = !dram_ld +. !dram_st;
      tex_bytes = (!gld_tx +. !gst_tx) *. 32.0;
      shm_bytes = (!shm_ld +. !shm_st) *. float_of_int elem_bytes;
      gld_transactions = !gld_tx;
      gst_transactions = !gst_tx;
      shm_ld = !shm_ld;
      shm_st = !shm_st;
      spill_bytes = spill;
      syncs = !syncs;
      instructions =
        !fl +. ((!gld_elems +. !gst_elems +. !shm_ld +. !shm_st) *. 0.5);
    }
  end

(* ------------------------------------------------------------------ *)
(* Whole-grid summation via block classes                              *)
(* ------------------------------------------------------------------ *)

(* Blocks fall into at most 3 classes per dimension (first, middle, last);
   all middle blocks see identical clipping and row alignments whenever
   tile extents keep sector alignment, so one representative per class
   combination suffices.  [exact] forces the full per-block loop. *)
let total_counters ?(exact = false) ctx =
  let g = ctx.geom in
  let r = g.rank in
  (* Class summation is exact when inner-row alignments repeat across
     middle blocks: domains whose trailing extents are sector multiples
     (all benchmark sizes) with a sector-aligned innermost tile.  A
     non-aligned innermost tile perturbs at most one sector per row; the
     tested cross-validation path passes [exact]. *)
  if exact then begin
    (* Full loop: exact for any alignment. *)
    let acc = ref Counters.zero in
    let block = Array.make r 0 in
    let rec go d =
      if d = r then acc := Counters.add !acc (block_counters ctx block)
      else
        for c = 0 to g.grid.(d) - 1 do
          block.(d) <- c;
          go (d + 1)
        done
    in
    go 0;
    !acc
  end
  else begin
    (* Boundary influence width in blocks: how many blocks from each face
       see clipped regions (halo may span several tiles). *)
    let max_ext =
      Array.init r (fun d ->
          let from_ext (e : An.extent) =
            let lo, hi = e.(d) in
            max (-lo) hi
          in
          let of_bufs =
            List.fold_left
              (fun acc (b : Launch.buffer) -> max acc (from_ext b.extent))
              0 ctx.bufs
          in
          List.fold_left
            (fun acc si -> max acc (max (from_ext si.region_ext) (from_ext si.guard_ext)))
            of_bufs ctx.stmts)
    in
    let classes_of_dim d =
      let n = g.grid.(d) in
      (* Boundary influence reaches one block beyond the halo span: a
         middle block's extended region can still hit the guard boundary
         when the last tile is partial, so be conservative. *)
      let w = 1 + (((2 * max_ext.(d)) + g.tile.(d) - 1) / g.tile.(d)) in
      if n <= (2 * w) + 1 then List.init n (fun i -> (i, 1))
      else
        List.init w (fun i -> (i, 1))
        @ [ (w, n - (2 * w)) ]
        @ List.init w (fun i -> (n - w + i, 1))
    in
    let acc = ref Counters.zero in
    let block = Array.make r 0 in
    let rec go d mult =
      if d = r then acc := Counters.add !acc (Counters.scale (float_of_int mult) (block_counters ctx block))
      else
        List.iter
          (fun (rep, count) ->
            block.(d) <- rep;
            go (d + 1) (mult * count))
          (classes_of_dim d)
    in
    go 0 1;
    !acc
  end

(** The launch's [Timing] workload charged with [counters]: exact
    whole-grid sums for [Analytic], a one-block sketch for [Predict]. *)
let workload ctx counters =
  {
    Artemis_gpu.Timing.counters;
    occupancy = ctx.res.occupancy;
    ilp = ctx.res.ilp;
    blocks = ctx.geom.total_blocks;
    threads_per_block = Plan.threads_per_block ctx.plan;
    prefetch = ctx.plan.prefetch;
    serial_waves = ctx.serial_waves;
  }
