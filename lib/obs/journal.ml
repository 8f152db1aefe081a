(* Decision journal.  Mirrors Trace's sink shape — enabled flag, global
   mutex, reversed list buffer — minus timestamps: events must be
   byte-identical at jobs=1 and jobs=N, so their only ordering is the
   sequence number assigned when they reach the log.  Appends happen on
   the main domain in canonical order. *)

type entry = { e_kind : string; e_fields : (string * Json.t) list }

let enabled_flag = ref false
let lock = Mutex.create ()
let buffer : entry list ref = ref []
let count = ref 0

let enabled () = !enabled_flag

let start () =
  Mutex.lock lock;
  buffer := [];
  count := 0;
  enabled_flag := true;
  Mutex.unlock lock

let stop () = enabled_flag := false

let append kind fields =
  if !enabled_flag then begin
    let e = { e_kind = kind; e_fields = fields } in
    Mutex.lock lock;
    buffer := e :: !buffer;
    incr count;
    Mutex.unlock lock
  end

let events () =
  Mutex.lock lock;
  let entries = List.rev !buffer in
  Mutex.unlock lock;
  List.mapi
    (fun seq e ->
      Json.Obj (("seq", Json.Int seq) :: ("event", Json.Str e.e_kind) :: e.e_fields))
    entries

let event_count () = !count

let to_jsonl () =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string b (Json.to_string ev);
      Buffer.add_char b '\n')
    (events ());
  Buffer.contents b

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_jsonl ()))

let parse_jsonl s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map Json.parse

let read path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse_jsonl contents
