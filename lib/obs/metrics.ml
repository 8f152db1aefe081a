(* Metrics registry.  Handles are mutable records registered in a global
   table keyed by (name, sorted labels); hot paths register once and pay
   one mutex-guarded float store per update.  [reset] zeroes values but
   keeps the registrations, so module-level handles never dangle.

   A single global mutex guards both the registry and every value
   mutation: pool workers update counters concurrently, and unsynchronized
   read-modify-write stores would silently lose increments. *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

type counter = { mutable c_value : float }
type gauge = { mutable g_value : float }

type entry =
  | Counter of counter
  | Gauge of gauge

type key = { name : string; labels : (string * string) list }

let registry : (key, entry) Hashtbl.t = Hashtbl.create 64

let key name labels =
  { name; labels = List.sort compare labels }

let register k make =
  locked @@ fun () ->
  match Hashtbl.find_opt registry k with
  | Some e -> e
  | None ->
    let e = make () in
    Hashtbl.replace registry k e;
    e

let counter ?(labels = []) name =
  match register (key name labels) (fun () -> Counter { c_value = 0.0 }) with
  | Counter c -> c
  | Gauge _ ->
    invalid_arg (Printf.sprintf "Metrics.counter: %s already registered as another type" name)

let incr ?(by = 1.0) (c : counter) = locked (fun () -> c.c_value <- c.c_value +. by)
let counter_value (c : counter) = locked (fun () -> c.c_value)

let gauge ?(labels = []) name =
  match register (key name labels) (fun () -> Gauge { g_value = 0.0 }) with
  | Gauge g -> g
  | Counter _ ->
    invalid_arg (Printf.sprintf "Metrics.gauge: %s already registered as another type" name)

let set (g : gauge) v = locked (fun () -> g.g_value <- v)
let gauge_value (g : gauge) = locked (fun () -> g.g_value)

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ entry ->
      match entry with
      | Counter c -> c.c_value <- 0.0
      | Gauge g -> g.g_value <- 0.0)
    registry

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let snapshot () =
  locked @@ fun () ->
  let entries = Hashtbl.fold (fun k e acc -> (k, e) :: acc) registry [] in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let counters, gauges =
    List.fold_left
      (fun (cs, gs) (k, e) ->
        let base = [ ("name", Json.Str k.name); ("labels", labels_json k.labels) ] in
        match e with
        | Counter c -> (Json.Obj (base @ [ ("value", Json.Float c.c_value) ]) :: cs, gs)
        | Gauge g -> (cs, Json.Obj (base @ [ ("value", Json.Float g.g_value) ]) :: gs))
      ([], []) entries
  in
  Json.Obj
    [ ("counters", Json.List (List.rev counters));
      ("gauges", Json.List (List.rev gauges)) ]
