(* Expression evaluation at a domain point: shared by the reference
   executor and the block executor so both compute identical values.

   Two evaluation strategies live here:

   - the original tree-walking interpreter ([eval]/[guard]), which
     resolves names and iterator dimensions at every grid point; and
   - a compile-once lowering ([compile]) that resolves array/scalar
     bindings and index offsets a single time per statement and returns
     closures the executors call per point — no per-point
     [List.find_index]/[Not_found] control flow.

   Both produce bit-identical results (the closure tree mirrors the
   interpreter's float-operation order exactly).  [compile_stmt]'s
   [mode] picks one; the benchmark harness and the tests run the
   [Interpreted] mode to time and check the pre-compilation baseline. *)

module A = Artemis_dsl.Ast

exception Out_of_bounds
exception Unknown_intrinsic of string

type env = {
  lookup_array : string -> Grid.t;  (** concrete array storage *)
  lookup_scalar : string -> float;  (** runtime scalar arguments *)
  lookup_temp : string -> float;  (** per-point temporaries (raises Not_found) *)
  iters : string list;  (** kernel iterators, outermost first *)
}

(** Absolute coordinates of an access at domain point [point]: each array
    dimension indexed by [iterator + shift] resolves against the point's
    component for that iterator; constant indices resolve as-is. *)
let access_coords env (point : int array) (idx : A.index list) =
  let coords = Array.make (List.length idx) 0 in
  List.iteri
    (fun d (i : A.index) ->
      match i.iter with
      | None -> coords.(d) <- i.shift
      | Some it -> (
        match List.find_index (String.equal it) env.iters with
        | Some dim -> coords.(d) <- point.(dim) + i.shift
        | None -> invalid_arg ("unbound iterator " ^ it)))
    idx;
  coords

let apply_intrinsic f args =
  match (f, args) with
  | "sqrt", [ x ] -> sqrt x
  | "fabs", [ x ] -> Float.abs x
  | "exp", [ x ] -> exp x
  | "log", [ x ] -> log x
  | "sin", [ x ] -> sin x
  | "cos", [ x ] -> cos x
  | "min", [ x; y ] -> Float.min x y
  | "max", [ x; y ] -> Float.max x y
  | "pow", [ x; y ] -> Float.pow x y
  | "fma", [ x; y; z ] -> Float.fma x y z
  | _ -> raise (Unknown_intrinsic f)

(** Evaluate [e] at [point].
    @raise Out_of_bounds when any array read falls outside its grid (the
    caller treats the statement as guarded off at this point). *)
let rec eval env point (e : A.expr) =
  match e with
  | A.Const f -> f
  | A.Scalar_ref s -> (
    match env.lookup_temp s with
    | v -> v
    | exception Not_found -> env.lookup_scalar s)
  | A.Access (a, idx) ->
    let g = env.lookup_array a in
    let coords = access_coords env point idx in
    if Grid.in_bounds g coords then Grid.get g coords else raise Out_of_bounds
  | A.Neg e1 -> -.eval env point e1
  | A.Bin (op, e1, e2) -> (
    let v1 = eval env point e1 in
    let v2 = eval env point e2 in
    match op with
    | A.Add -> v1 +. v2
    | A.Sub -> v1 -. v2
    | A.Mul -> v1 *. v2
    | A.Div -> v1 /. v2)
  | A.Call (f, args) -> apply_intrinsic f (List.map (eval env point) args)

(** True when every array read of [e] at [point] is in bounds — the guard
    the generated CUDA emits around each statement. *)
let guard env point (e : A.expr) =
  List.for_all
    (fun (a, idx) ->
      let g = env.lookup_array a in
      Grid.in_bounds g (access_coords env point idx))
    (A.reads_of_expr e)

(* ------------------------------------------------------------------ *)
(* Compile-once lowering                                               *)
(* ------------------------------------------------------------------ *)

(* The four executor paths, bit-identical by construction; see eval.mli. *)
type mode =
  | Interpreted
  | Guarded
  | Split_no_elim
  | Split

let use_interpreter = ref false
let default_mode () = if !use_interpreter then Interpreted else Split

let splits = function
  | Split_no_elim | Split -> true
  | Interpreted | Guarded -> false

type binder = {
  bind_array : string -> Grid.t;  (** array storage, temp grids included *)
  bind_temp : string -> Grid.t option;  (** per-point temporaries as grids *)
  bind_scalar : string -> float;
  binder_iters : string list;
}

type compiled = {
  cguard : int array -> bool;  (** all array reads in bounds at the point *)
  cvalue : int array -> float;  (** value; may raise [Out_of_bounds] *)
}

let iter_dim (b : binder) it =
  let rec find i = function
    | [] -> invalid_arg ("unbound iterator " ^ it)
    | x :: _ when String.equal x it -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 b.binder_iters

(* Per-access plan: each array dimension is (iterator dim, shift), with
   dim = -1 for constant indices.  The coords buffer is reused across
   points, so each compiled closure belongs to one sequential sweep. *)
let access_plan b (idx : A.index list) =
  let spec =
    Array.of_list
      (List.map
         (fun (i : A.index) ->
           match i.iter with
           | None -> (-1, i.shift)
           | Some it -> (iter_dim b it, i.shift))
         idx)
  in
  let coords = Array.make (Array.length spec) 0 in
  fun (point : int array) ->
    Array.iteri
      (fun d (dim, shift) ->
        coords.(d) <- (if dim < 0 then shift else point.(dim) + shift))
      spec;
    coords

(* One plan per (array, index) pair, shared between the guard and value
   closures of a compiled statement: the guard checks bounds through the
   same coordinate buffer the value then reads through, so each pair
   resolves its binding and offsets exactly once. *)
let plan_cache (b : binder) =
  let plans : (string * A.index list, Grid.t * (int array -> int array)) Hashtbl.t =
    Hashtbl.create 8
  in
  fun a idx ->
    match Hashtbl.find_opt plans (a, idx) with
    | Some p -> p
    | None ->
      let p = (b.bind_array a, access_plan b idx) in
      Hashtbl.replace plans (a, idx) p;
      p

let compile_value ~plan_of (b : binder) (e : A.expr) : int array -> float =
  let rec go e =
    match e with
    | A.Const f -> fun _ -> f
    | A.Scalar_ref s -> (
      (* Temps shadow scalars, as in the interpreter's lookup order. *)
      match b.bind_temp s with
      | Some g -> fun point -> Grid.get g point
      | None ->
        let v = b.bind_scalar s in
        fun _ -> v)
    | A.Access (a, idx) ->
      let g, coords_at = plan_of a idx in
      fun point ->
        let c = coords_at point in
        if Grid.in_bounds g c then Grid.get g c else raise Out_of_bounds
    | A.Neg e1 ->
      let f1 = go e1 in
      fun point -> -.f1 point
    | A.Bin (op, e1, e2) -> (
      let f1 = go e1 and f2 = go e2 in
      match op with
      | A.Add -> fun point -> f1 point +. f2 point
      | A.Sub -> fun point -> f1 point -. f2 point
      | A.Mul -> fun point -> f1 point *. f2 point
      | A.Div -> fun point -> f1 point /. f2 point)
    | A.Call (f, args) -> (
      match (f, List.map go args) with
      | "sqrt", [ x ] -> fun p -> sqrt (x p)
      | "fabs", [ x ] -> fun p -> Float.abs (x p)
      | "exp", [ x ] -> fun p -> exp (x p)
      | "log", [ x ] -> fun p -> log (x p)
      | "sin", [ x ] -> fun p -> sin (x p)
      | "cos", [ x ] -> fun p -> cos (x p)
      | "min", [ x; y ] -> fun p -> Float.min (x p) (y p)
      | "max", [ x; y ] -> fun p -> Float.max (x p) (y p)
      | "pow", [ x; y ] -> fun p -> Float.pow (x p) (y p)
      | "fma", [ x; y; z ] -> fun p -> Float.fma (x p) (y p) (z p)
      | _ -> raise (Unknown_intrinsic f))
  in
  go e

let compile_guard ~plan_of (e : A.expr) : int array -> bool =
  let checks =
    List.map
      (fun (a, idx) ->
        let g, coords_at = plan_of a idx in
        fun point -> Grid.in_bounds g (coords_at point))
      (A.reads_of_expr e)
  in
  match checks with
  | [] -> fun _ -> true
  | checks -> fun point -> List.for_all (fun c -> c point) checks

(** Lower [e] against pre-resolved bindings.  Name resolution, iterator
    dimension lookup, and intrinsic dispatch happen once, here; the
    returned closures only index grids and combine floats.
    @raise Unknown_intrinsic on an undiagnosed intrinsic (lint code A104)
    @raise Invalid_argument on unbound names or iterators *)
let compile (b : binder) (e : A.expr) : compiled =
  let plan_of = plan_cache b in
  { cguard = compile_guard ~plan_of e; cvalue = compile_value ~plan_of b e }

(* The interpreter baseline in [compile_stmt]'s shape: write coordinates,
   guard and value all evaluate per point through [access_coords], [guard]
   and [eval].  The per-point temp lookup needs the current point,
   threaded through a ref exactly as the executors did before compilation
   existed. *)
let interpreted (b : binder) (idx : A.index list) (e : A.expr) =
  let env_point = ref [||] in
  let env =
    {
      lookup_array = b.bind_array;
      lookup_scalar = b.bind_scalar;
      lookup_temp =
        (fun t ->
          match b.bind_temp t with
          | Some g -> Grid.get g !env_point
          | None -> raise Not_found);
      iters = b.binder_iters;
    }
  in
  let at f point =
    env_point := point;
    f env point
  in
  ( at (fun env p -> access_coords env p idx),
    at (fun env p -> guard env p e),
    at (fun env p -> eval env p e) )

(* ------------------------------------------------------------------ *)
(* Flat-index compilation for interior sweeps                          *)
(* ------------------------------------------------------------------ *)

(* Inside a guaranteed-in-bounds interior box every per-point check is
   dead weight, and so is recomputing multi-dimensional coordinates: an
   affine access moves through a grid's flat [float array] with a fixed
   stride along the innermost iterator.  [compile_flat] lowers an
   expression to that form — per row, each access resolves to a flat
   base offset plus [q * step]; per point, the value closures only index
   float arrays and combine floats.  Point-invariant subexpressions (scalars,
   constant arithmetic, accesses that do not move along the row) are
   hoisted to row setup. *)

type access_path = {
  ap_grid : Grid.t;
  ap_spec : (int * int) array;
      (* per array dimension: (iteration dim, shift); dim = -1 constant *)
  ap_step : int;  (* flat-index stride per unit of the innermost iterator *)
  mutable ap_base : int;  (* flat index at the current row's start point *)
}

let spec_of (b : binder) (idx : A.index list) =
  Array.of_list
    (List.map
       (fun (i : A.index) ->
         match i.iter with
         | None -> (-1, i.shift)
         | Some it -> (iter_dim b it, i.shift))
       idx)

let access_path (b : binder) (g : Grid.t) (idx : A.index list) =
  let spec = spec_of b idx in
  let inner = List.length b.binder_iters - 1 in
  let step = ref 0 in
  Array.iteri
    (fun d (dim, _) -> if dim = inner then step := !step + g.Grid.strides.(d))
    spec;
  { ap_grid = g; ap_spec = spec; ap_step = !step; ap_base = 0 }

let path_bind_row (p : access_path) (point : int array) =
  let idx = ref 0 in
  Array.iteri
    (fun d (dim, shift) ->
      let c = if dim < 0 then shift else point.(dim) + shift in
      idx := !idx + (c * p.ap_grid.Grid.strides.(d)))
    p.ap_spec;
  p.ap_base <- !idx

(** Intersect [box] (over the iteration space) with the region where
    every access of [paths] is in bounds.  Each array dimension
    constrains one iteration dimension to an interval, so the in-bounds
    set is exactly a box — the same set the statement's guard accepts.
    A constant index outside its extent empties the box. *)
let clip_in_bounds (paths : access_path list) (box : Region.box) : Region.box =
  let out = Array.copy box in
  List.iter
    (fun p ->
      Array.iteri
        (fun d (dim, shift) ->
          let n = p.ap_grid.Grid.dims.(d) in
          if dim < 0 then begin
            if shift < 0 || shift >= n then out.(0) <- (0, -1)
          end
          else begin
            let lo, hi = out.(dim) in
            out.(dim) <- (max lo (-shift), min hi (n - 1 - shift))
          end)
        p.ap_spec)
    paths;
  out

(* Splitting reorders the sweep (shells before interior), so it is only
   sound when reordering cannot be observed:

   - any read aliasing the written grid must read exactly the cell being
     written (a pure identity self-read — order-independent no matter
     what the iterators cover); and
   - an iteration dimension missing from the write index (the same cell
     written on every value of that dimension) is harmless as long as no
     read varies along it: every repeat then computes the same value, so
     assignment is idempotent and accumulation applies the same
     per-cell function the same number of times in any order.  A read
     that does vary along an uncovered dimension makes the repeats
     observable (which repeat lands last / the float accumulation order)
     and forces the guarded path.  Per-point temporaries are
     domain-shaped identity reads: they vary along every dimension
     ([reads_temp]). *)
let order_independent ~rank ~(target : Grid.t) ~(wspec : (int * int) array)
    ~reads_temp paths =
  let covered = Array.make (max rank 1) false in
  Array.iter (fun (dim, _) -> if dim >= 0 then covered.(dim) <- true) wspec;
  let varying = Array.make (max rank 1) reads_temp in
  List.iter
    (fun p ->
      Array.iter
        (fun (dim, _) -> if dim >= 0 then varying.(dim) <- true)
        p.ap_spec)
    paths;
  let free_ok = ref true in
  for d = 0 to rank - 1 do
    if (not covered.(d)) && varying.(d) then free_ok := false
  done;
  !free_ok
  && List.for_all
       (fun p ->
         (not (p.ap_grid.Grid.data == target.Grid.data)) || p.ap_spec = wspec)
       paths

type flat = {
  fbind : int array -> unit;  (* bind a row: the row's start point *)
  fat : int -> float;  (* value at offset q along the row *)
}

let compile_flat ?target (b : binder) (e : A.expr) : flat =
  let inner = List.length b.binder_iters - 1 in
  let identity_idx = List.map (fun it -> A.index ~iter:it 0) b.binder_iters in
  let paths = ref [] in
  let setups = ref [] in
  let new_path g idx =
    let p = access_path b g idx in
    paths := p :: !paths;
    p
  in
  let aliases_target (g : Grid.t) =
    match target with Some t -> g.Grid.data == t.Grid.data | None -> false
  in
  (* (varies along the row, reads the written grid) of a subtree. *)
  let rec info e =
    match e with
    | A.Const _ -> (false, false)
    | A.Scalar_ref s -> (
      match b.bind_temp s with
      | Some g -> (true, aliases_target g)  (* identity access: step >= 1 *)
      | None -> (false, false))
    | A.Access (a, idx) ->
      let g = b.bind_array a in
      let varies =
        List.exists
          (fun (i : A.index) ->
            match i.iter with
            | Some it -> iter_dim b it = inner
            | None -> false)
          idx
      in
      (varies, aliases_target g)
    | A.Neg e1 -> info e1
    | A.Bin (_, e1, e2) ->
      let v1, h1 = info e1 and v2, h2 = info e2 in
      (v1 || v2, h1 || h2)
    | A.Call (_, args) ->
      List.fold_left
        (fun (v, h) arg ->
          let v', h' = info arg in
          (v || v', h || h'))
        (false, false) args
  in
  (* A row-invariant subtree is hoisted to row setup — computed once from
     the same memory, so the per-point result is bit-identical.  Subtrees
     reading the written grid stay per-point (an earlier point of the
     sweep may have updated them). *)
  let worth_hoisting = function
    | A.Const _ -> false
    | A.Scalar_ref s -> b.bind_temp s <> None
    | A.Access _ | A.Neg _ | A.Bin _ | A.Call _ -> true
  in
  let rec go ~hoist e =
    let varies, hazard = info e in
    if hoist && (not varies) && (not hazard) && worth_hoisting e then begin
      let at = go_raw ~hoist:false e in
      let cache = ref 0.0 in
      setups := (fun () -> cache := at 0) :: !setups;
      fun _ -> !cache
    end
    else go_raw ~hoist e
  and go_raw ~hoist e : int -> float =
    match e with
    | A.Const f -> fun _ -> f
    | A.Scalar_ref s -> (
      match b.bind_temp s with
      | Some g ->
        (* A per-point temporary is a domain-shaped grid read at the
           point itself — an identity access, stride 1 along the row. *)
        let p = new_path g identity_idx in
        let data = g.Grid.data in
        fun q -> data.(p.ap_base + q)
      | None ->
        let v = b.bind_scalar s in
        fun _ -> v)
    | A.Access (a, idx) ->
      let g = b.bind_array a in
      let p = new_path g idx in
      let data = g.Grid.data in
      let step = p.ap_step in
      if step = 0 then fun _ -> data.(p.ap_base)
      else if step = 1 then fun q -> data.(p.ap_base + q)
      else fun q -> data.(p.ap_base + (q * step))
    | A.Neg e1 ->
      let f1 = go ~hoist e1 in
      fun q -> -.f1 q
    | A.Bin (op, e1, e2) -> (
      let f1 = go ~hoist e1 and f2 = go ~hoist e2 in
      match op with
      | A.Add -> fun q -> f1 q +. f2 q
      | A.Sub -> fun q -> f1 q -. f2 q
      | A.Mul -> fun q -> f1 q *. f2 q
      | A.Div -> fun q -> f1 q /. f2 q)
    | A.Call (f, args) -> (
      match (f, List.map (go ~hoist) args) with
      | "sqrt", [ x ] -> fun q -> sqrt (x q)
      | "fabs", [ x ] -> fun q -> Float.abs (x q)
      | "exp", [ x ] -> fun q -> exp (x q)
      | "log", [ x ] -> fun q -> log (x q)
      | "sin", [ x ] -> fun q -> sin (x q)
      | "cos", [ x ] -> fun q -> cos (x q)
      | "min", [ x; y ] -> fun q -> Float.min (x q) (y q)
      | "max", [ x; y ] -> fun q -> Float.max (x q) (y q)
      | "pow", [ x; y ] -> fun q -> Float.pow (x q) (y q)
      | "fma", [ x; y; z ] -> fun q -> Float.fma (x q) (y q) (z q)
      | _ -> raise (Unknown_intrinsic f))
  in
  let fat = go ~hoist:true e in
  let all_paths = !paths and all_setups = !setups in
  {
    fbind =
      (fun point ->
        List.iter (fun p -> path_bind_row p point) all_paths;
        List.iter (fun s -> s ()) all_setups);
    fat;
  }

type split_stmt = {
  ss_write : access_path;
  ss_expr : flat;
  ss_paths : access_path list;  (* write + reads: the in-bounds constraints *)
  ss_elim : bool;  (* the mode lets [elim_proven] skip dead shells *)
}

(* Does the expression read any per-point temporary?  [reads_of_expr]
   only lists array accesses, so temp reads (domain-shaped identity
   accesses) must be detected separately for [order_independent]. *)
let rec expr_reads_temp (b : binder) (e : A.expr) =
  match e with
  | A.Const _ | A.Access _ -> false
  | A.Scalar_ref s -> b.bind_temp s <> None
  | A.Neg e1 -> expr_reads_temp b e1
  | A.Bin (_, e1, e2) -> expr_reads_temp b e1 || expr_reads_temp b e2
  | A.Call (_, args) -> List.exists (expr_reads_temp b) args

let split_interior (ss : split_stmt) (region : Region.box) =
  clip_in_bounds ss.ss_paths region

(** True when the affine analyzer, recomputing the statement's in-bounds
    footprint from the raw (extents, spec) pairs, lands on exactly the
    executor's own [clip_in_bounds] box [interior].  Only then are the
    shells provably dead — every region point outside [interior] fails
    the write bounds check or the read guard, so the guarded body would
    fall through without writing.  Two independent engines must agree
    before a guard is skipped; disagreement falls back to sweeping. *)
let elim_proven (ss : split_stmt) ~(region : Region.box)
    ~(interior : Region.box) =
  ss.ss_elim
  && Artemis_static.Static.box_equal
       (Artemis_static.Static.footprint ~region
          ~accesses:
            (List.map (fun p -> (p.ap_grid.Grid.dims, p.ap_spec)) ss.ss_paths))
       interior

let run_row_assign (ss : split_stmt) (point : int array) (n : int) =
  ss.ss_expr.fbind point;
  path_bind_row ss.ss_write point;
  let data = ss.ss_write.ap_grid.Grid.data in
  let base = ss.ss_write.ap_base and step = ss.ss_write.ap_step in
  let fat = ss.ss_expr.fat in
  if step = 1 then
    for q = 0 to n - 1 do
      data.(base + q) <- fat q
    done
  else
    for q = 0 to n - 1 do
      data.(base + (q * step)) <- fat q
    done

let run_row_accum (ss : split_stmt) (point : int array) (n : int) =
  ss.ss_expr.fbind point;
  path_bind_row ss.ss_write point;
  let data = ss.ss_write.ap_grid.Grid.data in
  let base = ss.ss_write.ap_base and step = ss.ss_write.ap_step in
  let fat = ss.ss_expr.fat in
  if step = 1 then
    for q = 0 to n - 1 do
      let w = base + q in
      data.(w) <- data.(w) +. fat q
    done
  else
    for q = 0 to n - 1 do
      let w = base + (q * step) in
      data.(w) <- data.(w) +. fat q
    done

(* ------------------------------------------------------------------ *)
(* Unified statement compilation                                       *)
(* ------------------------------------------------------------------ *)

type stmt_class =
  | Sc_split of split_stmt
  | Sc_wavefront of split_stmt * int array
  | Sc_guarded

type stmt_exec = {
  sx_class : stmt_class;
  sx_guarded : int array -> unit;
  sx_row : int array -> int -> unit;
}

let no_row _ _ = invalid_arg "Eval.compile_stmt: guarded statement has no row body"

(* Uniform self-dependence distances of the statement, or [None] when
   the wavefront schedule does not apply: the write must cover every
   iteration dimension (each point writes its own cell exactly once, so
   "iteration p reads the cell iteration p + delta writes" is
   well-defined) and every target-aliased read must be a constant
   offset of the write.  Identity and provably-disjoint reads drop out. *)
let self_deltas ~rank ~(target : Grid.t) ~(wspec : (int * int) array) paths =
  let covered = Array.make (max rank 1) false in
  Array.iter (fun (dim, _) -> if dim >= 0 then covered.(dim) <- true) wspec;
  let all_covered =
    rank = 0 || Array.for_all Fun.id (Array.sub covered 0 rank)
  in
  if not all_covered then None
  else begin
    let rec collect acc = function
      | [] -> Some (List.rev acc)
      | p :: rest ->
        if not (p.ap_grid.Grid.data == target.Grid.data) then collect acc rest
        else (
          match Wavefront.delta_of_specs ~rank ~wspec ~rspec:p.ap_spec with
          | `Non_uniform -> None
          | `No_alias -> collect acc rest
          | `Delta d ->
            if Array.for_all (fun c -> c = 0) d then collect acc rest
            else collect (d :: acc) rest)
    in
    collect [] paths
  end

(** One statement compiled for sweeping under [mode]: the guarded
    per-point closure (always available — boundary shells, wavefront row
    ends, and the full fallback all use it) plus the schedule class the
    executors dispatch on.  The compiled closures share one plan cache,
    so the guarded fallback does not rebuild the plans the split
    decision already constructed. *)
let compile_stmt ~mode (b : binder) ~(target : Grid.t) ~(accum : bool)
    (idx : A.index list) (e : A.expr) : stmt_exec =
  let coords_at, cguard, cvalue =
    match mode with
    | Interpreted -> interpreted b idx e
    | Guarded | Split_no_elim | Split ->
      let c = compile b e in
      (access_plan b idx, c.cguard, c.cvalue)
  in
  let guarded p =
    let w = coords_at p in
    if Grid.in_bounds target w && cguard p then
      if accum then Grid.set target w (Grid.get target w +. cvalue p)
      else Grid.set target w (cvalue p)
  in
  let cls =
    if not (splits mode) then Sc_guarded
    else begin
      let rank = List.length b.binder_iters in
      let wpath = access_path b target idx in
      let rpaths =
        List.map (fun (a, ridx) -> access_path b (b.bind_array a) ridx)
          (A.reads_of_expr e)
      in
      let mk_split () =
        {
          ss_write = wpath;
          ss_expr = compile_flat ~target b e;
          ss_paths = wpath :: rpaths;
          ss_elim = mode = Split;
        }
      in
      let reads_temp = expr_reads_temp b e in
      if order_independent ~rank ~target ~wspec:wpath.ap_spec ~reads_temp rpaths
      then Sc_split (mk_split ())
      else
        match self_deltas ~rank ~target ~wspec:wpath.ap_spec rpaths with
        | Some deltas -> (
          match Wavefront.hyperplane ~rank deltas with
          | Some vec -> Sc_wavefront (mk_split (), vec)
          | None -> Sc_guarded)
        | None -> Sc_guarded
    end
  in
  let row =
    match cls with
    | Sc_split ss | Sc_wavefront (ss, _) ->
      if accum then run_row_accum ss else run_row_assign ss
    | Sc_guarded -> no_row
  in
  { sx_class = cls; sx_guarded = guarded; sx_row = row }
