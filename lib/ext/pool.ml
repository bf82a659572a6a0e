(* No [open]s: [Domain] here must be [Stdlib.Domain], not the attribute
   domains of [Mxra_relational]. *)

type t = {
  mutable lanes : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  mutable domains : unit Domain.t array;
  mutable closed : bool;
  (* Telemetry counters, read lock-free by the resource sampler. *)
  busy : int Atomic.t;
  n_maps : int Atomic.t;
}

(* Workers block on [work_ready] until a job is queued or the pool
   closes.  Jobs left queued at close are dropped: they are always
   helper loops of an already-completed [map_array] (the caller lane
   finishes the map before returning), so dropping them is safe. *)
let worker_loop pool =
  let rec next () =
    Mutex.lock pool.lock;
    let rec claim () =
      if pool.closed then None
      else
        match Queue.take_opt pool.queue with
        | Some job -> Some job
        | None ->
            Condition.wait pool.work_ready pool.lock;
            claim ()
    in
    let job = claim () in
    Mutex.unlock pool.lock;
    match job with
    | None -> ()
    | Some job ->
        job ();
        next ()
  in
  next ()

let create n =
  let lanes = max 1 n in
  let pool =
    {
      lanes;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_ready = Condition.create ();
      domains = [||];
      closed = false;
      busy = Atomic.make 0;
      n_maps = Atomic.make 0;
    }
  in
  pool.domains <-
    Array.init (lanes - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = pool.lanes

let shutdown pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  Array.iter Domain.join pool.domains;
  pool.domains <- [||]

let with_pool n f =
  let pool = create n in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let mapi_array ?chunk pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (pool.lanes * 4))
    in
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let remaining = Atomic.make n in
    let failure = Atomic.make None in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    (* Every lane — spawned or the caller — runs this loop: claim the
       next morsel off the shared cursor, process it, repeat.  After a
       failure the remaining morsels are claimed but skipped, so
       [remaining] still reaches zero and nobody deadlocks. *)
    Atomic.incr pool.n_maps;
    let run_morsels () =
      Atomic.incr pool.busy;
      Fun.protect
        ~finally:(fun () -> Atomic.decr pool.busy)
      @@ fun () ->
      let rec loop () =
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo < n then begin
          let hi = min n (lo + chunk) in
          (if Atomic.get failure = None then
             try
               for i = lo to hi - 1 do
                 results.(i) <- Some (f i arr.(i))
               done
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          let before = Atomic.fetch_and_add remaining (-(hi - lo)) in
          if before - (hi - lo) = 0 then begin
            Mutex.lock done_lock;
            Condition.broadcast all_done;
            Mutex.unlock done_lock
          end;
          loop ()
        end
      in
      loop ()
    in
    if Array.length pool.domains > 0 then begin
      Mutex.lock pool.lock;
      for _ = 1 to Array.length pool.domains do
        Queue.add run_morsels pool.queue
      done;
      Condition.broadcast pool.work_ready;
      Mutex.unlock pool.lock
    end;
    run_morsels ();
    (* The caller lane has run out of morsels; what remains is the
       drain — waiting for worker domains still inside theirs.  That
       interval is the [pool.queue] wait.  Only a real pool can have
       one (sequential fallback finishes everything on the caller), so
       single-lane runs stay event-free. *)
    let drain_from =
      if Array.length pool.domains > 0 && Atomic.get remaining > 0 then
        Mxra_obs.Wait.now_us ()
      else Float.nan
    in
    Mutex.lock done_lock;
    while Atomic.get remaining > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    if not (Float.is_nan drain_from) then
      Mxra_obs.Ash.event Mxra_obs.Wait.Pool_queue ~detail:"map.drain"
        ~dur_us:(Mxra_obs.Wait.now_us () -. drain_from);
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map
          (function Some v -> v | None -> assert false (* all completed *))
          results
  end

let map_array ?chunk pool f arr = mapi_array ?chunk pool (fun _ x -> f x) arr

type stats = { s_lanes : int; s_queued : int; s_busy : int; s_maps : int }

(* Racy single-field reads by design: the sampler wants a cheap glance,
   not a consistent snapshot, and none of these reads can tear.  The
   queue length is a plain mutable int inside [Queue.t]. *)
let stats pool =
  {
    s_lanes = pool.lanes;
    s_queued = Queue.length pool.queue;
    s_busy = Atomic.get pool.busy;
    s_maps = Atomic.get pool.n_maps;
  }

(* Grow [pool] to [n] lanes in place: the new workers join the same
   queue, so a [map_array] already in flight on another thread only
   sees extra lanes that find no morsels left. *)
let grow pool n =
  Mutex.protect pool.lock @@ fun () ->
  if n > pool.lanes && not pool.closed then begin
    pool.domains <-
      Array.append pool.domains
        (Array.init (n - pool.lanes) (fun _ ->
             Domain.spawn (fun () -> worker_loop pool)));
    pool.lanes <- n
  end

(* --- the process-wide pool --------------------------------------------- *)

let installed = ref None

let shared n =
  match !installed with
  | Some pool ->
      grow pool n;
      pool
  | None ->
      let pool = create n in
      installed := Some pool;
      pool

(* Probe for the resource sampler: observes the installed pool without
   ever creating one — a telemetry read must not spawn domains. *)
let telemetry () =
  match !installed with
  | None ->
      [
        ("pool.lanes", 1.0);
        ("pool.queued", 0.0);
        ("pool.busy", 0.0);
        ("pool.maps", 0.0);
      ]
  | Some pool ->
      let s = stats pool in
      [
        ("pool.lanes", float_of_int s.s_lanes);
        ("pool.queued", float_of_int s.s_queued);
        ("pool.busy", float_of_int s.s_busy);
        ("pool.maps", float_of_int s.s_maps);
      ]

let () =
  at_exit (fun () ->
      Option.iter shutdown !installed;
      installed := None)
