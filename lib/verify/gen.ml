(* Random stencil programs for the differential harness.  See gen.mli for
   the invariants each shape decision maintains. *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate

type case = {
  index : int;
  prog : A.program;
  iterative : bool;
  multi_output : bool;
}

let iter_pool = [ "k"; "j"; "i" ]

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let consts = [ 0.5; 2.0; -1.25; 3.0; 0.125; -0.75 ]
let divisors = [ 2.0; 4.0; -1.5; 8.0 ]

(* Shifts are mostly 0/±1 with an occasional ±2 (non-iterative only). *)
let shift rng ~max_shift =
  let s = match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> 0
    | 4 | 5 -> 1
    | 6 | 7 -> -1
    | 8 -> 2
    | _ -> -2
  in
  if s > max_shift then max_shift else if s < -max_shift then -max_shift else s

let access rng ~iters ~max_shift a =
  A.Access (a, List.map (fun it -> A.index ~iter:it (shift rng ~max_shift)) iters)

(* General expression tree.  [arrays] are readable array names; [scalars]
   are Scalar_ref-able names (declared scalars and earlier temporaries);
   [divs] are safe divisor scalars (declared scalars only — a temporary
   can be zero on guarded-off boundary cells). *)
let rec expr rng ~iters ~max_shift ~arrays ~scalars ~divs depth =
  let leaf () =
    match Rng.int rng 6 with
    | 0 | 1 | 2 -> access rng ~iters ~max_shift (Rng.pick rng arrays)
    | 3 when scalars <> [] -> A.Scalar_ref (Rng.pick rng scalars)
    | _ -> A.Const (Rng.pick rng consts)
  in
  if depth <= 0 then leaf ()
  else
    let sub d = expr rng ~iters ~max_shift ~arrays ~scalars ~divs d in
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let op = Rng.pick rng [ A.Add; A.Add; A.Sub; A.Mul ] in
      A.Bin (op, sub (depth - 1), sub (depth - 1))
    | 4 -> A.Neg (sub (depth - 1))
    | 5 -> A.Call ("fabs", [ sub (depth - 1) ])
    | 6 -> A.Call ((if Rng.bool rng then "min" else "max"),
                   [ sub (depth - 1); sub (depth - 1) ])
    | 7 ->
      let denom =
        if divs <> [] && Rng.bool rng then A.Scalar_ref (Rng.pick rng divs)
        else A.Const (Rng.pick rng divisors)
      in
      A.Bin (A.Div, sub (depth - 1), denom)
    | _ -> leaf ()

(* Every sweep statement must read at least one array, otherwise its
   guard is vacuous and the statement is a degenerate fill. *)
let expr_reading rng ~iters ~max_shift ~arrays ~scalars ~divs depth =
  let e = expr rng ~iters ~max_shift ~arrays ~scalars ~divs depth in
  if A.reads_of_expr e = [] then
    A.Bin (A.Add, access rng ~iters ~max_shift (Rng.pick rng arrays), e)
  else e

(* Linear combination sum of c_i * A_i[off_i] — bounded growth per sweep,
   so iterated application cannot overflow to infinity. *)
let linear_expr rng ~iters ~arrays ~scalars =
  let term () =
    let coeff =
      if scalars <> [] && Rng.chance rng 0.3 then A.Scalar_ref (Rng.pick rng scalars)
      else A.Const (Rng.pick rng [ 0.5; 0.25; -0.5; 0.125; 1.0 ])
    in
    A.Bin (A.Mul, coeff, access rng ~iters ~max_shift:1 (Rng.pick rng arrays))
  in
  let n = 2 + Rng.int rng 3 in
  List.fold_left
    (fun acc _ ->
      let op = if Rng.chance rng 0.25 then A.Sub else A.Add in
      A.Bin (op, acc, term ()))
    (term ())
    (List.init (n - 1) Fun.id)

let center iters = List.map (fun it -> A.index ~iter:it 0) iters

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(* Bind a statement list over concrete array/scalar names into a stencil
   definition with positional formals, plus the matching Apply item. *)
let make_stencil sname body ~array_order ~scalar_order =
  let referenced = ref [] in
  let note n = if not (List.mem n !referenced) then referenced := n :: !referenced in
  List.iter
    (fun st ->
      (match A.written_array st with Some a -> note a | None -> ());
      A.fold_stmt_exprs
        (fun () e ->
          A.fold_expr
            (fun () e ->
              match e with
              | A.Access (a, _) -> note a
              | A.Scalar_ref s -> note s
              | _ -> ())
            () e)
        () st)
    body;
  let temps =
    List.filter_map (function A.Decl_temp (n, _) -> Some n | _ -> None) body
  in
  let used n = List.mem n !referenced && not (List.mem n temps) in
  let actual_arrays = List.filter used array_order in
  let actual_scalars = List.filter used scalar_order in
  let actuals = actual_arrays @ actual_scalars in
  let formals = List.mapi (fun i _ -> Printf.sprintf "X%d" i) actuals in
  let mapping = List.combine actuals formals in
  let def =
    {
      A.sname;
      formals;
      body = List.map (A.subst_stmt mapping) body;
      assign = [];
      pragma = A.empty_pragma;
    }
  in
  (def, A.Apply (sname, actuals))

(* An iterative ping-pong case: one order-1 step kernel applied T times
   with a buffer swap, the idiom deep tuning fuses.  With [deep] (a
   forked rng), the time loop runs 6..12 iterations over smaller domains
   — enough depth for degree-N temporal blocking to cover several inner
   steps per launch, without inflating fuzz runtime. *)
let gen_iterative ?deep rng =
  let rank = 2 + Rng.int rng 2 in
  let iters = List.filteri (fun i _ -> i >= 3 - rank) iter_pool in
  let params =
    List.init rank (fun d ->
        let v =
          match deep with
          | Some drng ->
            (* Innermost stays a multiple of the 4-double sector. *)
            if d = rank - 1 then Rng.pick drng [ 12; 16 ]
            else Rng.pick drng [ 10; 12; 14 ]
          | None ->
            if d = rank - 1 then Rng.pick rng [ 16; 20 ]
            else Rng.pick rng [ 14; 15; 16; 18 ]
        in
        (Printf.sprintf "N%d" d, v))
  in
  let dims = List.map (fun (n, _) -> A.Dparam n) params in
  let coeff = Rng.chance rng 0.4 in
  let arrays = [ "u1"; "u0" ] @ (if coeff then [ "w0" ] else []) in
  let scalars = [ "c0" ] in
  let decls =
    List.map (fun a -> A.Array_decl (a, dims)) arrays
    @ List.map (fun s -> A.Scalar_decl s) scalars
  in
  let t_iters =
    match deep with
    | Some drng -> 6 + Rng.int drng 7
    | None -> 2 + Rng.int rng 3
  in
  let readables = "u0" :: (if coeff then [ "w0" ] else []) in
  let body = ref [] in
  let temps = ref [] in
  if Rng.chance rng 0.4 then begin
    body := [ A.Decl_temp ("t0", linear_expr rng ~iters ~arrays:readables ~scalars) ];
    temps := [ "t0" ]
  end;
  let rhs = linear_expr rng ~iters ~arrays:readables ~scalars:(scalars @ !temps) in
  body := !body @ [ A.Assign ("u1", center iters, rhs) ];
  if Rng.chance rng 0.3 then
    body :=
      !body
      @ [ A.Accum ("u1", center iters,
                   linear_expr rng ~iters ~arrays:readables ~scalars) ];
  let def, apply = make_stencil "step" !body ~array_order:arrays ~scalar_order:scalars in
  let prog =
    {
      A.params;
      iters;
      decls;
      copyin = arrays @ scalars;
      stencils = [ def ];
      main = [ A.Iterate (t_iters, [ apply; A.Swap ("u1", "u0") ]) ];
      copyout = [ "u0" ];
    }
  in
  (prog, false)

(* A Gauss-Seidel/SOR relaxation case: one statement updating an array
   in place from self-reads at componentwise same-sign unit distances —
   the class the wavefront schedule executes.  Same-sign distances keep
   the block executor's tile order equivalent to the reference's point
   order, so oracle invariant 1 (reference vs blocks, bitwise) stays
   pinned; invariant 4 separately re-runs these cases with the wavefront
   schedule disabled.  Coefficient magnitudes sum below 1, so a sweep
   contracts and no case can reach inf/NaN. *)
let gen_seidel rng =
  let rank = 2 + Rng.int rng 2 in
  let iters = List.filteri (fun i _ -> i >= 3 - rank) iter_pool in
  let params =
    List.init rank (fun d ->
        let v =
          if d = rank - 1 then Rng.pick rng [ 12; 16 ]
          else Rng.pick rng [ 7; 8; 10; 12 ]
        in
        (Printf.sprintf "N%d" d, v))
  in
  let dims = List.map (fun (n, _) -> A.Dparam n) params in
  let forcing = Rng.chance rng 0.5 in
  let arrays = "u0" :: (if forcing then [ "f0" ] else []) in
  let scalars = [ "c0" ] in
  let decls =
    List.map (fun a -> A.Array_decl (a, dims)) arrays
    @ List.map (fun s -> A.Scalar_decl s) scalars
  in
  let at off = List.map2 (fun it s -> A.index ~iter:it s) iters off in
  let zero = List.map (fun _ -> 0) iters in
  let axis d s = List.mapi (fun i _ -> if i = d then s else 0) iters in
  (* Always one backward and one forward unit distance — a dependence in
     both lexicographic directions — plus random extra axis offsets and
     an optional all-same-sign diagonal. *)
  let offs = ref [ axis (Rng.int rng rank) (-1); axis (Rng.int rng rank) 1 ] in
  List.iteri
    (fun d _ ->
      if Rng.chance rng 0.4 then offs := axis d (-1) :: !offs;
      if Rng.chance rng 0.4 then offs := axis d 1 :: !offs)
    iters;
  if Rng.chance rng 0.3 then begin
    let s = if Rng.bool rng then 1 else -1 in
    offs := List.map (fun _ -> s) iters :: !offs
  end;
  let offs = List.sort_uniq compare !offs in
  let coeff () = A.Const (Rng.pick rng [ 0.125; 0.0625; -0.0625; 0.03125 ]) in
  let term off = A.Bin (A.Mul, coeff (), A.Access ("u0", at off)) in
  let rhs =
    List.fold_left
      (fun acc off -> A.Bin (A.Add, acc, term off))
      (term (List.hd offs)) (List.tl offs)
  in
  let rhs =
    (* Optional SOR-style diagonal term: c0 * the point's own old value. *)
    if Rng.chance rng 0.5 then
      A.Bin (A.Add, rhs, A.Bin (A.Mul, A.Scalar_ref "c0", A.Access ("u0", at zero)))
    else rhs
  in
  let rhs =
    if forcing then A.Bin (A.Add, rhs, A.Access ("f0", at zero)) else rhs
  in
  let body = [ A.Assign ("u0", at zero, rhs) ] in
  let def, apply = make_stencil "gs" body ~array_order:arrays ~scalar_order:scalars in
  {
    A.params;
    iters;
    decls;
    copyin = arrays @ scalars;
    stencils = [ def ];
    main = [ A.Run apply ];
    copyout = [ "u0" ];
  }

(* A spatial DAG case: temporaries, optional staged intermediate array,
   1..3 final outputs with optional accumulation chains; optionally split
   into a producer/consumer two-stencil pipeline. *)
let gen_dag rng =
  let rank = 1 + Rng.int rng 3 in
  let iters = List.filteri (fun i _ -> i >= 3 - rank) iter_pool in
  let max_shift = if rank = 3 then 1 + Rng.int rng 2 else 2 in
  let params =
    List.init rank (fun d ->
        let v =
          if d = rank - 1 then Rng.pick rng [ 8; 12; 16 ]
          else Rng.pick rng [ 5; 6; 7; 9; 10; 12 ]
        in
        (Printf.sprintf "N%d" d, v))
  in
  let dims = List.map (fun (n, _) -> A.Dparam n) params in
  let n_in = 1 + Rng.int rng 2 in
  let inputs = List.init n_in (Printf.sprintf "in%d") in
  let n_out = 1 + Rng.int rng 3 in
  let outs = List.init n_out (Printf.sprintf "out%d") in
  let has_inter = Rng.chance rng 0.45 in
  let inters = if has_inter then [ "g0" ] else [] in
  let scalars = List.init (1 + Rng.int rng 2) (Printf.sprintf "c%d") in
  let arrays = inputs @ inters @ outs in
  let decls =
    List.map (fun a -> A.Array_decl (a, dims)) arrays
    @ List.map (fun s -> A.Scalar_decl s) scalars
  in
  (* A pipeline split puts the intermediate producer in its own stencil;
     consumers then must not reference the producer's temporaries. *)
  let split = has_inter && Rng.chance rng 0.35 in
  let n_tmp = Rng.int rng 3 in
  let temps = List.init n_tmp (Printf.sprintf "t%d") in
  (* Depth <= 2 bounds value growth through the temp -> intermediate ->
     output chain well below the double range: no run can reach inf/NaN,
     which would mask (or fake) output mismatches. *)
  let depth () = 1 + Rng.int rng 2 in
  let mk_temps () =
    List.map
      (fun t ->
        A.Decl_temp
          (t,
           expr_reading rng ~iters ~max_shift ~arrays:inputs ~scalars
             ~divs:scalars (depth ())))
      temps
  in
  let temp_stmts = mk_temps () in
  let inter_stmts =
    List.map
      (fun g ->
        A.Assign
          (g, center iters,
           expr_reading rng ~iters ~max_shift ~arrays:inputs
             ~scalars:(scalars @ temps) ~divs:scalars (depth ())))
      inters
  in
  let out_readables = inputs @ inters in
  let out_scalars = if split then scalars else scalars @ temps in
  let out_stmts =
    List.concat_map
      (fun o ->
        let rhs () =
          expr_reading rng ~iters ~max_shift ~arrays:out_readables
            ~scalars:out_scalars ~divs:scalars (depth ())
        in
        let first =
          (* Final outputs may start with an accumulation chain (they
             accumulate onto the copied-in contents); intermediates never
             do — the executor rejects accumulate-first intermediates. *)
          if Rng.chance rng 0.2 then A.Accum (o, center iters, rhs ())
          else A.Assign (o, center iters, rhs ())
        in
        if Rng.chance rng 0.3 then [ first; A.Accum (o, center iters, rhs ()) ]
        else [ first ])
      outs
  in
  let stencils, main =
    if split then begin
      let p_def, p_apply =
        make_stencil "produce" (temp_stmts @ inter_stmts) ~array_order:arrays
          ~scalar_order:scalars
      in
      let c_def, c_apply =
        make_stencil "consume" out_stmts ~array_order:arrays ~scalar_order:scalars
      in
      ([ p_def; c_def ], [ A.Run p_apply; A.Run c_apply ])
    end
    else begin
      let def, apply =
        make_stencil "s0" (temp_stmts @ inter_stmts @ out_stmts)
          ~array_order:arrays ~scalar_order:scalars
      in
      ([ def ], [ A.Run apply ])
    end
  in
  let prog =
    {
      A.params;
      iters;
      decls;
      copyin = arrays @ scalars;
      stencils;
      main;
      copyout = outs;
    }
  in
  (* Fission applies to any kernel with several final outputs (in a
     pipeline, the consumer). *)
  (prog, n_out >= 2)

(* Raise every extent parameter that leaves some kernel's interior empty
   (lint A202: the halos of chained reads outgrow the domain) to the
   smallest extent with one interior point, the innermost rounded up to
   the sector width.  Parameter [d] is the extent of iteration dimension
   [d] in every generated program.  Draws nothing from any RNG, so
   programs whose interiors are already non-empty come back unchanged. *)
let widen_empty_interiors (prog : A.program) =
  let need = Array.of_list (List.map snd prog.params) in
  let rec walk items =
    List.iter
      (function
        | I.Launch (k : I.kernel) ->
          let lo, hi = Artemis_lint.Lint.clipped_interior k in
          Array.iteri
            (fun d l ->
              if hi.(d) < l then need.(d) <- max need.(d) (k.domain.(d) + l - hi.(d)))
            lo
        | I.Exchange _ -> ()
        | I.Repeat (_, sub) -> walk sub)
      items
  in
  walk (I.schedule prog);
  let inner = Array.length need - 1 in
  let params =
    List.mapi
      (fun d (name, v) ->
        let n = if d = inner && need.(d) > v then (need.(d) + 3) / 4 * 4 else need.(d) in
        (name, n))
      prog.params
  in
  { prog with params }

let generate ~seed ~index =
  (* Self-dependent cases draw from a forked stream so enabling them
     left every pre-existing (seed, index) program byte-identical. *)
  let srng = Rng.make2 (seed lxor 0x5e1de1) index in
  let seidel = Rng.chance srng 0.22 in
  (* Deep time loops likewise fork their own stream: enabling them left
     every pre-existing shallow (seed, index) program byte-identical. *)
  let drng = Rng.make2 (seed lxor 0x7e3a11) index in
  let deep = Rng.chance drng 0.25 in
  let rng = Rng.make2 seed index in
  let iterative = (not seidel) && Rng.chance rng 0.35 in
  let prog, multi_output =
    if seidel then (gen_seidel srng, false)
    else if iterative then
      gen_iterative ?deep:(if deep then Some drng else None) rng
    else gen_dag rng
  in
  let prog = widen_empty_interiors prog in
  (* Generated programs are correct by construction; catching drift here
     (rather than downstream) keeps shrinking honest. *)
  Artemis_dsl.Check.check prog;
  { index; prog; iterative; multi_output }

let max_shift (prog : A.program) =
  List.fold_left
    (fun acc (st : A.stencil_def) ->
      List.fold_left
        (fun acc stmt ->
          A.fold_stmt_exprs
            (fun acc e ->
              List.fold_left
                (fun acc (_, idx) ->
                  List.fold_left (fun acc (i : A.index) -> max acc (abs i.shift)) acc idx)
                acc (A.reads_of_expr e))
            acc stmt)
        acc st.body)
    0 prog.stencils
