(* The benchmark's clock and its in-memory span recorder.

   The clock excludes result checking: [paused f] runs [f] (a check)
   and shifts the clock back by its duration, so op latencies and span
   times never include the benchmark's own verification work, even
   when a check runs between two rounds an op spans.

   Spans are recorded only around calls from the benchmark into the
   program's public functions — the program's own [Trace] stays off.
   With recording disabled, [with_] is one branch and a call. *)

let paused_s = ref 0.0
let now () = Unix.gettimeofday () -. !paused_s

let paused f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> paused_s := !paused_s +. (Unix.gettimeofday () -. t0))
    f

type span = {
  id : int;
  name : string;
  start : float;  (** seconds, benchmark clock *)
  stop : float;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  op : int;  (** the op the span worked for, -1 for shared work *)
}

let recording = ref false
let next_id = ref 0
let open_ids = ref []
let finished = ref []
let current_op = ref (-1)

let reset () =
  next_id := 0;
  open_ids := [];
  finished := [];
  current_op := -1

let with_op op f =
  let saved = !current_op in
  current_op := op;
  Fun.protect ~finally:(fun () -> current_op := saved) f

let with_ name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let op = !current_op in
    open_ids := id :: !open_ids;
    let start = now () in
    let close () =
      let stop = now () in
      open_ids := List.tl !open_ids;
      finished := { id; name; start; stop; parent; op } :: !finished
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let all () = List.rev !finished

(* Self time per span name: a span's duration minus the part its
   children cover.  Returns (name, seconds) pairs. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt self s.name) in
      Hashtbl.replace self s.name (prev +. (s.stop -. s.start -. covered)))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []

let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"start_us\":%.1f,\"end_us\":%.1f,\
             \"parent\":%d,\"op\":%d}\n"
            s.id s.name (s.start *. 1e6) (s.stop *. 1e6) s.parent s.op)
        spans)
