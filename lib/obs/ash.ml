(* Live statement activity and the Active Session History.

   Two structures behind one mutex:

   - the {e activity registry}: one slot per in-flight statement or
     transaction, keyed by qid, carrying fingerprint, start time, the
     operator currently producing chunks, progress counters (rows and
     chunks out of the plan root, advanced from the executor's chunk
     loop) and the current wait state.  Registration and removal take
     the lock; the per-chunk hot path ([advance], [set_operator]) is
     plain mutable stores on the caller's own slot — racy reads by the
     sampler are deliberate, a glance must not cost a lock.

   - the {e ASH ring}: a bounded buffer of samples.  Rows arrive two
     ways.  The sampler thread (or any caller of [sample_now])
     snapshots every live slot on its cadence — a running statement
     samples as [cpu.exec] on its current operator, a blocked one as
     its wait class.  Completed wait intervals (lock waits, conflict
     aborts, WAL appends and fsyncs, pool-queue drains) additionally
     push one {e event} row each when they end, carrying the true
     duration: these are rare (per block / commit / fsync, never per
     tuple), so the ring stays sampling-cheap while short-lived waits
     that a 100 ms cadence would miss still appear in [sys.ash].

   The [set_enabled] switch turns registration, sampling and ring
   pushes off; [Wait] class counters stay on — they are two atomics per
   event and carry no per-session state. *)

type slot = {
  s_qid : string;
  mutable s_fingerprint : string;
  mutable s_text : string;
  mutable s_lang : string;
  s_start_us : float;
  mutable s_operator : string;  (* operator that produced the last chunk *)
  mutable s_rows : int;  (* root-output rows (multiplicity-weighted) *)
  mutable s_chunks : int;  (* root-output chunks *)
  mutable s_est_rows : float;  (* planner estimate for the root; 0 = none *)
  mutable s_wait : Wait.class_ option;
  mutable s_wait_detail : string;
  s_live : bool;  (* false only on the shared disabled-mode dummy *)
}

type sample = {
  a_t_s : float;
  a_qid : string;
  a_fingerprint : string;
  a_class : Wait.class_;
  a_detail : string;
  a_wait_ms : float;  (* 0 for cadence samples; true duration for events *)
  a_kind : string;  (* "sample" | "event" *)
}

type progress = {
  p_qid : string;
  p_fingerprint : string;
  p_lang : string;
  p_text : string;
  p_operator : string;
  p_chunks : int;
  p_rows : int;
  p_est_rows : float;
  p_pct : float;  (* rows vs estimate, clamped to 100; 0 when no estimate *)
  p_elapsed_ms : float;
  p_wait : string;  (* current wait class, or "cpu.exec" *)
}

(* --- the enabled switch ------------------------------------------------- *)

let enabled_flag = Atomic.make true

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- registry + ring, one lock ------------------------------------------ *)

let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let sessions : (string, slot) Hashtbl.t = Hashtbl.create 32

let default_capacity = 4096
let ring : sample option array ref = ref (Array.make default_capacity None)
let head = ref 0  (* next write index *)
let filled = ref 0
let pushed = ref 0  (* lifetime rows pushed, survives wrap-around *)

let capacity () = Array.length !ring

let set_capacity n =
  with_lock (fun () ->
      ring := Array.make (max 16 n) None;
      head := 0;
      filled := 0)

let clear () =
  with_lock (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      head := 0;
      filled := 0;
      pushed := 0)

let push_locked s =
  let r = !ring in
  let n = Array.length r in
  r.(!head) <- Some s;
  head := (!head + 1) mod n;
  if !filled < n then incr filled;
  incr pushed

let push s = with_lock (fun () -> push_locked s)

(* Oldest to newest. *)
let snapshot () =
  with_lock (fun () ->
      let r = !ring in
      let n = Array.length r in
      let start = (!head - !filled + n) mod n in
      List.init !filled (fun i ->
          match r.((start + i) mod n) with
          | Some s -> s
          | None -> assert false))

let pushed_total () = !pushed

(* --- sessions ----------------------------------------------------------- *)

let dummy =
  {
    s_qid = "";
    s_fingerprint = "";
    s_text = "";
    s_lang = "";
    s_start_us = 0.0;
    s_operator = "";
    s_rows = 0;
    s_chunks = 0;
    s_est_rows = 0.0;
    s_wait = None;
    s_wait_detail = "";
    s_live = false;
  }

let live slot = slot.s_live

let register ?(lang = "xra") ?(text = "") ~qid () =
  if not (enabled ()) then dummy
  else begin
    let slot =
      {
        s_qid = qid;
        s_fingerprint = (if text = "" then "" else Fingerprint.fingerprint text);
        s_text = text;
        s_lang = lang;
        s_start_us = Wait.now_us ();
        s_operator = "";
        s_rows = 0;
        s_chunks = 0;
        s_est_rows = 0.0;
        s_wait = None;
        s_wait_detail = "";
        s_live = true;
      }
    in
    with_lock (fun () -> Hashtbl.replace sessions qid slot);
    slot
  end

let set_statement slot ?lang text =
  if slot.s_live then begin
    slot.s_text <- text;
    slot.s_fingerprint <- Fingerprint.fingerprint text;
    Option.iter (fun l -> slot.s_lang <- l) lang
  end

let set_estimate slot est =
  if slot.s_live then slot.s_est_rows <- Float.max 0.0 est

(* Chunk-loop hot path: plain stores, no lock, no liveness branch — the
   disabled-mode dummy absorbs them harmlessly. *)
let set_operator slot op = slot.s_operator <- op

let advance slot ~rows =
  slot.s_rows <- slot.s_rows + rows;
  slot.s_chunks <- slot.s_chunks + 1

let set_wait slot w =
  if slot.s_live then
    match w with
    | None -> slot.s_wait <- None
    | Some (cls, detail) ->
        slot.s_wait <- Some cls;
        slot.s_wait_detail <- detail

let current_wait slot =
  match slot.s_wait with
  | Some cls -> Some (cls, slot.s_wait_detail)
  | None -> None

let finish slot =
  if slot.s_live then begin
    let removed =
      with_lock (fun () ->
          match Hashtbl.find_opt sessions slot.s_qid with
          | Some s when s == slot ->
              Hashtbl.remove sessions slot.s_qid;
              true
          | Some _ | None -> false)
    in
    (* The statement's wall clock lands on the cpu.exec counter: the
       coarse "time spent executing" series next to the true wait-class
       durations.  (In-statement stalls are inside it; the per-class
       counters carry the precise split.)  Only on the first finish —
       defensive double-finishes must not double-count. *)
    if removed then Wait.note Wait.Cpu_exec (Wait.now_us () -. slot.s_start_us)
  end

let live_count () = with_lock (fun () -> Hashtbl.length sessions)

(* --- events ------------------------------------------------------------- *)

(* A completed wait interval: always feeds the class counters; pushes
   one ASH event row when the subsystem is enabled. *)
let event ?(qid = "-") ?(fingerprint = "") cls ~detail ~dur_us =
  Wait.note cls dur_us;
  if enabled () then
    push
      {
        a_t_s = Unix.gettimeofday ();
        a_qid = qid;
        a_fingerprint = fingerprint;
        a_class = cls;
        a_detail = detail;
        a_wait_ms = Float.max 0.0 dur_us /. 1000.0;
        a_kind = "event";
      }

(* The same, attributed to a registered session. *)
let slot_event slot cls ~detail ~dur_us =
  if slot.s_live then
    event ~qid:slot.s_qid ~fingerprint:slot.s_fingerprint cls ~detail ~dur_us
  else Wait.note cls dur_us

let track ?qid ?fingerprint cls ~detail f =
  let t0 = Wait.now_us () in
  Fun.protect
    ~finally:(fun () -> event ?qid ?fingerprint cls ~detail ~dur_us:(Wait.now_us () -. t0))
    f

(* --- sampling ----------------------------------------------------------- *)

(* One pass over the live sessions, one ring row each: the wait class
   if the session is blocked, else cpu.exec on its current operator.
   Field reads are racy by design (the owner advances them lock-free);
   a sample is a glance, not a barrier. *)
let sample_now () =
  if not (enabled ()) then 0
  else
    with_lock (fun () ->
        let now = Unix.gettimeofday () in
        let n = ref 0 in
        Hashtbl.iter
          (fun _ s ->
            let cls, detail =
              match s.s_wait with
              | Some c -> (c, s.s_wait_detail)
              | None -> (Wait.Cpu_exec, s.s_operator)
            in
            push_locked
              {
                a_t_s = now;
                a_qid = s.s_qid;
                a_fingerprint = s.s_fingerprint;
                a_class = cls;
                a_detail = detail;
                a_wait_ms = 0.0;
                a_kind = "sample";
              };
            incr n)
          sessions;
        !n)

(* Sampler probe: snapshotting the registry into the ring *is* the
   probe's job (the "existing sampler thread" drives ASH cadence); the
   returned series make ring growth and live-session count visible. *)
let probe () =
  ignore (sample_now ());
  [
    ("ash.samples", float_of_int !pushed);
    ("ash.live", float_of_int (live_count ()));
  ]

(* --- progress ----------------------------------------------------------- *)

let progress () =
  let now = Wait.now_us () in
  let slots =
    with_lock (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) sessions [])
  in
  List.sort (fun a b -> compare a.p_qid b.p_qid)
    (List.map
       (fun s ->
         {
           p_qid = s.s_qid;
           p_fingerprint = s.s_fingerprint;
           p_lang = s.s_lang;
           p_text = s.s_text;
           p_operator = s.s_operator;
           p_chunks = s.s_chunks;
           p_rows = s.s_rows;
           p_est_rows = s.s_est_rows;
           p_pct =
             (if s.s_est_rows > 0.0 then
                Float.min 100.0 (100.0 *. float_of_int s.s_rows /. s.s_est_rows)
              else 0.0);
           p_elapsed_ms = (now -. s.s_start_us) /. 1000.0;
           p_wait =
             (match s.s_wait with
             | Some c -> Wait.name c
             | None -> Wait.name Wait.Cpu_exec);
         })
       slots)

(* --- ambient slot (the executor's handle) ------------------------------- *)

(* The running statement's slot, ambient for the duration of its
   execution so the chunk loop in [Exec] can advance progress without
   threading a parameter through every operator.  A plain ref: queries
   execute on the process's main thread (HTTP and sampler threads only
   read), and a disabled/dead slot never installs itself, so the
   executor's [current () = None] fast path stays branch-only. *)
let ambient : slot option ref = ref None

let with_slot slot f =
  if not slot.s_live then f ()
  else begin
    let saved = !ambient in
    ambient := Some slot;
    Fun.protect ~finally:(fun () -> ambient := saved) f
  end

let current () = !ambient

(* --- rendering ---------------------------------------------------------- *)

let render_ash ?(limit = 256) () =
  let rows = snapshot () in
  let total = List.length rows in
  let shown =
    (* Newest last; when over the limit, keep the tail. *)
    if total <= limit then rows
    else List.filteri (fun i _ -> i >= total - limit) rows
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-8s %-16s %-10s %9s %-6s %s\n" "t_s" "qid"
       "fingerprint" "class" "wait_ms" "kind" "detail");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%12.3f %-8s %-16s %-10s %9.3f %-6s %s\n" s.a_t_s
           s.a_qid s.a_fingerprint (Wait.name s.a_class) s.a_wait_ms s.a_kind
           s.a_detail))
    shown;
  if total > limit then
    Buffer.add_string buf (Printf.sprintf "… %d older\n" (total - limit));
  Buffer.add_string buf
    (String.concat ""
       (List.map
          (fun c ->
            Printf.sprintf "-- wait.%s: %d events, %.3f ms\n" (Wait.name c)
              (Wait.count c) (Wait.waited_ms c))
          Wait.all));
  Buffer.contents buf

let render_progress () =
  let rows = progress () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-8s %-16s %-4s %-14s %8s %10s %10s %6s %10s %-10s %s\n"
       "qid" "fingerprint" "lang" "operator" "chunks" "rows" "est_rows" "pct"
       "elapsed_ms" "wait" "statement");
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-8s %-16s %-4s %-14s %8d %10d %10.0f %5.1f%% %10.2f %-10s %s\n"
           p.p_qid p.p_fingerprint p.p_lang p.p_operator p.p_chunks p.p_rows
           p.p_est_rows p.p_pct p.p_elapsed_ms p.p_wait
           (Stmt_stats.truncate_text p.p_text)))
    rows;
  Buffer.contents buf
