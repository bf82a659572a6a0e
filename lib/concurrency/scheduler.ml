open Mxra_relational
open Mxra_core
module Trace = Mxra_obs.Trace
module Qid = Mxra_obs.Qid
module Wait = Mxra_obs.Wait
module Ash = Mxra_obs.Ash

(* Process-lifetime counters for the resource sampler: cheap atomics,
   summed across every batch this process has run. *)
let total_steps = Atomic.make 0
let total_blocks = Atomic.make 0
let total_deadlocks = Atomic.make 0
let total_conflicts = Atomic.make 0
let total_commits = Atomic.make 0
let total_batches = Atomic.make 0

(* Wall time transactions spent blocked on locks, in microseconds —
   an int so one atomic add suffices. *)
let total_lock_wait_us = Atomic.make 0

(* Snapshot staleness at commit, summed over committed SI transactions:
   how many other commits landed between a transaction's snapshot and
   its own commit.  [txn.snapshot_age] reports the mean. *)
let total_snapshot_age = Atomic.make 0
let total_si_commits = Atomic.make 0

let telemetry () =
  let si_commits = Atomic.get total_si_commits in
  [
    ("sched.steps", float_of_int (Atomic.get total_steps));
    ("sched.blocks", float_of_int (Atomic.get total_blocks));
    ("sched.deadlocks", float_of_int (Atomic.get total_deadlocks));
    ("sched.conflicts", float_of_int (Atomic.get total_conflicts));
    ("sched.commits", float_of_int (Atomic.get total_commits));
    ("sched.batches", float_of_int (Atomic.get total_batches));
    ("sched.lock_wait_ms", float_of_int (Atomic.get total_lock_wait_us) /. 1000.0);
    ( "txn.snapshot_age",
      float_of_int (Atomic.get total_snapshot_age)
      /. float_of_int (max 1 si_commits) );
  ]

type isolation =
  | Si
  | Two_pl

let isolation_name = function Si -> "si" | Two_pl -> "2pl"

type outcome =
  | Committed
  | Aborted of string

type stats = {
  steps : int;
  blocks : int;
  deadlocks : int;
  conflicts : int;
}

type result = {
  final : Database.t;
  outcomes : outcome list;
  commit_order : int list;
  outputs : Relation.t list list;
  query_ids : string list;
  latencies_ms : float list;
  stats : stats;
}

(* --- lock table (2PL engine) -------------------------------------------- *)

type lock_mode =
  | Shared
  | Exclusive

module Names = Map.Make (String)

type lock_state = {
  mode : lock_mode;
  holders : int list;  (* transaction indices *)
}

(* --- per-transaction execution state ------------------------------------ *)

type txn_status =
  | Running
  | Blocked of (string * lock_mode)  (* the lock it waits for (2PL) *)
  | Finished of outcome

type txn_exec = {
  txn : Transaction.t;
  index : int;
  qid : string;  (* minted per transaction; the correlation key *)
  ash : Ash.slot;  (* activity-registry entry, live for the batch *)
  mutable remaining : Statement.t list;
  mutable temps : (string * Relation.t) list;
  (* 2PL state: *)
  mutable held : (string * lock_mode) list;
  mutable before_images : Relation.t Names.t;  (* first-write backups *)
  (* SI state: *)
  mutable snapshot : Database.t option;  (* D^t captured at first step *)
  mutable snap_seq : int;  (* commit timestamp of that snapshot *)
  mutable writes : Relation.t Names.t;  (* private write overlay *)
  mutable status : txn_status;
  mutable outputs : Relation.t list;  (* ?E results, reversed *)
  mutable n_blocks : int;  (* this transaction's share of stats.blocks *)
  mutable started_us : float;  (* first scheduled step; nan before it *)
  mutable blocked_since : float;  (* lock-wait start (us); nan when runnable *)
  mutable latency_ms : float;  (* first step -> finish, wall ms *)
}

(* Close an open lock-wait interval: the wait runs from the first
   failed acquisition to the moment the transaction proceeds (locks
   granted) or dies (deadlock victim).  The time lands in the process
   counter and, via the transaction's qid, on the statement entry in
   {!Mxra_obs.Stmt_stats}. *)
let settle_wait t =
  if not (Float.is_nan t.blocked_since) then begin
    let wait_us = Trace.now_us () -. t.blocked_since in
    t.blocked_since <- Float.nan;
    ignore (Atomic.fetch_and_add total_lock_wait_us (int_of_float wait_us));
    Mxra_obs.Stmt_stats.add_lock_wait ~qid:t.qid (wait_us /. 1000.0);
    (* Close the ASH wait interval: one [lock] event row with the true
       duration, and the session samples as running again. *)
    let detail =
      match Ash.current_wait t.ash with Some (_, d) -> d | None -> ""
    in
    Ash.slot_event t.ash Wait.Lock ~detail ~dur_us:wait_us;
    Ash.set_wait t.ash None
  end

(* Relations a statement reads (expressions) and writes (the target). *)
let accesses stmt =
  match stmt with
  | Statement.Insert (name, e) | Statement.Delete (name, e) ->
      (Expr.relations e, Some name)
  | Statement.Update (name, e, _) -> (name :: Expr.relations e, Some name)
  | Statement.Assign (_, e) | Statement.Query e -> (Expr.relations e, None)

let mode_compatible existing requested =
  match (existing, requested) with
  | Shared, Shared -> true
  | Shared, Exclusive | Exclusive, Shared | Exclusive, Exclusive -> false

(* --- the scheduler ------------------------------------------------------- *)

type scheduler = {
  isolation : isolation;
  mutable shared : Database.t;
  mutable locks : lock_state Names.t;
  (* SI bookkeeping: the batch's commit clock and, per relation, the
     commit timestamp of its last writer — all first-committer-wins
     validation needs at relation granularity. *)
  mutable commit_seq : int;
  mutable last_writer : int Names.t;
  txns : txn_exec array;
  mutable n_steps : int;
  mutable n_blocks : int;
  mutable n_deadlocks : int;
  mutable n_conflicts : int;
  mutable commits : int list;  (* reverse commit order *)
}

let holds t name mode =
  List.exists
    (fun (n, m) ->
      n = name && (m = mode || (m = Exclusive && mode = Shared)))
    t.held

(* Try to take one lock; true on success. *)
let try_lock sched t name mode =
  if holds t name mode then true
  else
    match Names.find_opt name sched.locks with
    | None ->
        sched.locks <- Names.add name { mode; holders = [ t.index ] } sched.locks;
        t.held <- (name, mode) :: t.held;
        true
    | Some state ->
        let others = List.filter (fun h -> h <> t.index) state.holders in
        if others = [] then begin
          (* Sole holder: possibly upgrade Shared -> Exclusive. *)
          let mode' =
            match (state.mode, mode) with
            | Exclusive, _ | _, Exclusive -> Exclusive
            | Shared, Shared -> Shared
          in
          sched.locks <- Names.add name { mode = mode'; holders = [ t.index ] } sched.locks;
          t.held <- (name, mode') :: List.remove_assoc name t.held;
          true
        end
        else if mode_compatible state.mode mode then begin
          sched.locks <-
            Names.add name
              { state with holders = t.index :: state.holders }
              sched.locks;
          t.held <- (name, mode) :: t.held;
          true
        end
        else false

(* Locks needed by the next statement of [t] (persistent relations only;
   temporaries are private). *)
let needed_locks sched t stmt =
  let is_temp name = List.mem_assoc name t.temps in
  let is_persistent name = Database.mem name sched.shared && not (is_temp name) in
  let reads, write = accesses stmt in
  let shared_needs =
    List.filter is_persistent reads
    |> List.filter (fun n -> Some n <> write)
    |> List.sort_uniq String.compare
  in
  let exclusive_needs =
    match write with Some n when is_persistent n -> [ n ] | _ -> []
  in
  List.map (fun n -> (n, Shared)) shared_needs
  @ List.map (fun n -> (n, Exclusive)) exclusive_needs

(* Wait-for: who currently blocks a (name, mode) request of [t]. *)
let blockers sched t (name, mode) =
  match Names.find_opt name sched.locks with
  | None -> []
  | Some state ->
      if mode_compatible state.mode mode && state.mode = Shared && mode = Shared
      then []
      else List.filter (fun h -> h <> t.index) state.holders

let rec wait_for_cycle sched visiting from =
  if List.mem from visiting then true
  else
    match sched.txns.(from).status with
    | Blocked want ->
        List.exists
          (fun holder -> wait_for_cycle sched (from :: visiting) holder)
          (blockers sched sched.txns.(from) want)
    | Running | Finished _ -> false

let release_locks sched t =
  List.iter
    (fun (name, _) ->
      match Names.find_opt name sched.locks with
      | None -> ()
      | Some state ->
          let holders = List.filter (fun h -> h <> t.index) state.holders in
          sched.locks <-
            (if holders = [] then Names.remove name sched.locks
             else Names.add name { state with holders } sched.locks))
    t.held;
  t.held <- [];
  (* Anyone waiting may be runnable again. *)
  Array.iter
    (fun other ->
      match other.status with
      | Blocked _ -> other.status <- Running
      | Running | Finished _ -> ())
    sched.txns

(* What transaction [t] sees.  Under 2PL the shared state is current by
   construction (locks serialize access); under SI the base is the
   immutable snapshot captured at the transaction's first step, overlaid
   with its private writes.  Temporaries go on top in both modes. *)
let view_of sched t =
  let base =
    match sched.isolation with
    | Two_pl -> sched.shared
    | Si -> (
        match t.snapshot with
        | Some snap -> Names.fold Database.set t.writes snap
        | None -> sched.shared)
  in
  List.fold_left
    (fun db (name, r) -> Database.assign_temporary name r db)
    base t.temps

let temporaries_of view =
  List.filter_map
    (fun name ->
      if Database.is_temporary name view then
        Some (name, Database.find name view)
      else None)
    (Database.relation_names view)

(* 2PL write absorption: the transaction's view *is* the next shared
   state (its writes are lock-protected). *)
let absorb sched t view =
  t.temps <- temporaries_of view;
  sched.shared <- Database.drop_temporaries view

(* SI write absorption: persistent effects stay in the private overlay
   until commit.  A statement changes at most its one write target, so
   that is the only relation to copy out of the post-state. *)
let si_absorb t view stmt =
  (match accesses stmt with
  | _, Some name when not (Database.is_temporary name view) ->
      t.writes <- Names.add name (Database.find name view) t.writes
  | _ -> ());
  t.temps <- temporaries_of view

let backup_before_write sched t stmt =
  match accesses stmt with
  | _, Some name when not (List.mem_assoc name t.temps) ->
      if Database.mem name sched.shared
         && not (Names.mem name t.before_images)
      then
        t.before_images <-
          Names.add name (Database.find name sched.shared) t.before_images
  | _, _ -> ()

let undo sched t =
  Names.iter
    (fun name r -> sched.shared <- Database.set name r sched.shared)
    t.before_images;
  t.before_images <- Names.empty;
  t.temps <- []

let finish sched t outcome =
  settle_wait t;
  (match outcome with
  | Committed ->
      sched.commits <- t.index :: sched.commits;
      Atomic.incr total_commits
  | Aborted _ ->
      undo sched t;
      t.writes <- Names.empty;
      (* Atomicity extends to the user channel: an aborted transaction
         sends nothing. *)
      t.outputs <- []);
  t.temps <- [];
  t.status <- Finished outcome;
  release_locks sched t;
  Ash.finish t.ash;
  if not (Float.is_nan t.started_us) then begin
    let dur_us = Trace.now_us () -. t.started_us in
    t.latency_ms <- dur_us /. 1000.0;
    if Trace.enabled () then
      Trace.complete "txn" ~tid:t.index ~start_us:t.started_us ~dur_us
        ~attrs:
          [
            ("name", Trace.Str t.txn.Transaction.name);
            (Qid.attr_key, Trace.Str t.qid);
            ( "outcome",
              Trace.Str
                (match outcome with
                | Committed -> "committed"
                | Aborted reason -> "aborted: " ^ reason) );
            ("blocks", Trace.Int t.n_blocks);
            ("statements", Trace.Int (List.length t.txn.Transaction.body));
          ]
  end

(* First-committer-wins validation and commit of an SI transaction: it
   may install its writes iff no write-set relation was committed by a
   concurrent transaction after its snapshot timestamp. *)
let si_try_commit sched t =
  let conflict =
    Names.fold
      (fun name _ found ->
        match found with
        | Some _ -> found
        | None -> (
            match Names.find_opt name sched.last_writer with
            | Some seq when seq > t.snap_seq -> Some name
            | _ -> None))
      t.writes None
  in
  match conflict with
  | Some name ->
      sched.n_conflicts <- sched.n_conflicts + 1;
      Atomic.incr total_conflicts;
      Mxra_obs.Stmt_stats.add_conflict ~qid:t.qid;
      (* A conflict abort is instantaneous, not an interval: the event
         row carries the relation that failed validation, duration 0. *)
      Ash.slot_event t.ash Wait.Conflict ~detail:name ~dur_us:0.0;
      Trace.event "txn.conflict" ~tid:t.index
        ~attrs:
          [
            ("relation", Trace.Str name);
            ("snapshot_age", Trace.Int (sched.commit_seq - t.snap_seq));
          ];
      finish sched t (Aborted ("write-write conflict on " ^ name))
  | None ->
      sched.commit_seq <- sched.commit_seq + 1;
      ignore
        (Atomic.fetch_and_add total_snapshot_age
           (sched.commit_seq - 1 - t.snap_seq));
      Atomic.incr total_si_commits;
      sched.shared <- Names.fold Database.set t.writes sched.shared;
      sched.last_writer <-
        Names.fold
          (fun name _ m -> Names.add name sched.commit_seq m)
          t.writes sched.last_writer;
      t.writes <- Names.empty;
      finish sched t Committed

(* Run one statement of [t] against its view (locks, if any, already
   granted) and absorb the effects per the isolation mode. *)
let execute_statement sched t stmt rest =
  settle_wait t;
  sched.n_steps <- sched.n_steps + 1;
  Atomic.incr total_steps;
  (match sched.isolation with
  | Two_pl -> backup_before_write sched t stmt
  | Si -> ());
  let stats_on = Mxra_obs.Stmt_stats.enabled () in
  let stmt_start =
    if Trace.enabled () || stats_on then Trace.now_us () else Float.nan
  in
  (* ASH samples of this session now attribute to the statement being
     run, not just the transaction wrapper. *)
  if Ash.live t.ash then
    Ash.set_statement t.ash ~lang:"txn" (Statement.to_string stmt);
  match Statement.exec (view_of sched t) stmt with
  | view', output ->
      (* A per-statement span carrying the transaction's query_id: the
         link between the JSONL query log and the WAL records stamped
         with the same id at commit. *)
      if Trace.enabled () then
        Trace.complete "statement" ~tid:t.index ~start_us:stmt_start
          ~dur_us:(Trace.now_us () -. stmt_start)
          ~attrs:
            [
              ("txn", Trace.Str t.txn.Transaction.name);
              ("text", Trace.Str (Statement.to_string stmt));
              (Qid.attr_key, Trace.Str t.qid);
            ];
      (* Fold the statement into the cumulative fingerprint registry
         under the transaction's qid, which also makes commit-time WAL
         bytes attributable to it. *)
      if stats_on then
        Mxra_obs.Stmt_stats.record ~qid:t.qid
          ~rows:(match output with Some r -> Relation.cardinal r | None -> 0)
          ~wall_ms:((Trace.now_us () -. stmt_start) /. 1000.0)
          (Statement.to_string stmt);
      (match output with
      | Some r -> t.outputs <- r :: t.outputs
      | None -> ());
      (match sched.isolation with
      | Two_pl -> absorb sched t view'
      | Si -> si_absorb t view' stmt);
      t.remaining <- rest
  | exception e -> (
      match Transaction.abort_reason e with
      | Some reason -> finish sched t (Aborted reason)
      | None -> raise e)

(* One scheduling step of transaction [t]: under SI run its next
   statement against the snapshot (no locks); under 2PL first acquire
   the statement's locks.  An empty statement list is the end bracket:
   guard, then commit (validated first-committer-wins under SI). *)
let step sched t =
  if Float.is_nan t.started_us then t.started_us <- Trace.now_us ();
  (if sched.isolation = Si && t.snapshot = None then begin
     (* Begin: capture the immutable D^t and its commit timestamp. *)
     t.snapshot <- Some sched.shared;
     t.snap_seq <- sched.commit_seq
   end);
  match t.remaining with
  | [] ->
      let guard_fires =
        match t.txn.Transaction.abort_if with
        | None -> false
        | Some cond -> (
            match cond (view_of sched t) with
            | fires -> fires
            | exception _ -> true)
      in
      if guard_fires then finish sched t (Aborted "abort_if condition held")
      else (
        match sched.isolation with
        | Two_pl -> finish sched t Committed
        | Si -> si_try_commit sched t)
  | stmt :: rest -> (
      match sched.isolation with
      | Si -> execute_statement sched t stmt rest
      | Two_pl -> (
          let wanted = needed_locks sched t stmt in
          let missing =
            List.filter (fun (n, m) -> not (try_lock sched t n m)) wanted
          in
          match missing with
          | (want_name, want_mode) :: _ ->
              sched.n_blocks <- sched.n_blocks + 1;
              t.n_blocks <- t.n_blocks + 1;
              Atomic.incr total_blocks;
              Trace.event "lock.wait" ~tid:t.index
                ~attrs:
                  [
                    ("relation", Trace.Str want_name);
                    ( "mode",
                      Trace.Str
                        (match want_mode with
                        | Shared -> "shared"
                        | Exclusive -> "exclusive") );
                  ];
              t.status <- Blocked (want_name, want_mode);
              if Float.is_nan t.blocked_since then
                t.blocked_since <- Trace.now_us ();
              Ash.set_wait t.ash (Some (Wait.Lock, want_name));
              if wait_for_cycle sched [] t.index then begin
                sched.n_deadlocks <- sched.n_deadlocks + 1;
                Atomic.incr total_deadlocks;
                Trace.event "lock.deadlock" ~tid:t.index
                  ~attrs:[ ("relation", Trace.Str want_name) ];
                finish sched t (Aborted "deadlock victim")
              end
          | [] -> execute_statement sched t stmt rest))

let run ?(isolation = Si) ?schedule ?(on_step = fun () -> ()) ~seed db txns =
  let rng = Mxra_workload.Rng.make seed in
  Atomic.incr total_batches;
  let sched =
    {
      isolation;
      shared = db;
      locks = Names.empty;
      commit_seq = 0;
      last_writer = Names.empty;
      txns =
        Array.of_list
          (List.mapi
             (fun index txn ->
               let qid = Qid.mint () in
               {
                 txn;
                 index;
                 qid;
                 ash =
                   Ash.register ~lang:"txn" ~text:txn.Transaction.name ~qid ();
                 remaining = txn.Transaction.body;
                 temps = [];
                 held = [];
                 before_images = Names.empty;
                 snapshot = None;
                 snap_seq = 0;
                 writes = Names.empty;
                 status = Running;
                 outputs = [];
                 n_blocks = 0;
                 started_us = Float.nan;
                 blocked_since = Float.nan;
                 latency_ms = 0.0;
               })
             txns);
      n_steps = 0;
      n_blocks = 0;
      n_deadlocks = 0;
      n_conflicts = 0;
      commits = [];
    }
  in
  let runnable () =
    Array.to_list sched.txns
    |> List.filter (fun t ->
           match t.status with
           | Running -> true
           | Blocked want ->
               (* Re-check availability lazily. *)
               blockers sched t want = []
           | Finished _ -> false)
  in
  (* Scripted prefix of the interleaving (the anomaly battery pins exact
     schedules with it); entries naming unready transactions are
     skipped, and the seeded rng takes over once it runs out. *)
  let scripted = ref (Option.value schedule ~default:[]) in
  let pick candidates =
    let rec next () =
      match !scripted with
      | [] -> Mxra_workload.Rng.pick rng candidates
      | i :: rest -> (
          scripted := rest;
          match List.find_opt (fun t -> t.index = i) candidates with
          | Some t -> t
          | None -> next ())
    in
    next ()
  in
  let rec loop () =
    match runnable () with
    | [] ->
        (* Everything finished, or every live transaction is blocked —
           the latter is a deadlock the cycle detector should have
           broken; break it defensively by aborting one. *)
        let live =
          Array.to_list sched.txns
          |> List.filter (fun t ->
                 match t.status with
                 | Finished _ -> false
                 | Running | Blocked _ -> true)
        in
        (match live with
        | [] -> ()
        | victim :: _ ->
            sched.n_deadlocks <- sched.n_deadlocks + 1;
            Atomic.incr total_deadlocks;
            Trace.event "lock.deadlock" ~tid:victim.index;
            finish sched victim (Aborted "deadlock victim");
            loop ())
    | candidates ->
        let t = pick candidates in
        t.status <- Running;
        step sched t;
        on_step ();
        loop ()
  in
  Trace.with_span "scheduler.batch"
    ~attrs:
      [
        ("txns", Trace.Int (List.length txns));
        ("isolation", Trace.Str (isolation_name isolation));
      ]
    (fun () ->
      loop ();
      Trace.add_attr "steps" (Trace.Int sched.n_steps);
      Trace.add_attr "blocks" (Trace.Int sched.n_blocks);
      Trace.add_attr "conflicts" (Trace.Int sched.n_conflicts);
      Trace.add_attr "deadlocks" (Trace.Int sched.n_deadlocks));
  (* Advance the clock once per transaction, matching run_all. *)
  let final =
    List.fold_left
      (fun db _ -> Database.tick db)
      sched.shared
      (List.init (List.length txns) Fun.id)
  in
  {
    final;
    outcomes =
      Array.to_list sched.txns
      |> List.map (fun t ->
             match t.status with
             | Finished outcome -> outcome
             | Running | Blocked _ -> Aborted "scheduler ended early");
    commit_order = List.rev sched.commits;
    outputs =
      Array.to_list sched.txns |> List.map (fun t -> List.rev t.outputs);
    query_ids = Array.to_list sched.txns |> List.map (fun t -> t.qid);
    latencies_ms =
      Array.to_list sched.txns |> List.map (fun t -> t.latency_ms);
    stats =
      {
        steps = sched.n_steps;
        blocks = sched.n_blocks;
        deadlocks = sched.n_deadlocks;
        conflicts = sched.n_conflicts;
      };
  }

let equivalent_serial db txns result =
  let committed =
    List.map (List.nth txns) result.commit_order
  in
  let serial, outcomes = Transaction.run_all db committed in
  List.for_all Transaction.committed outcomes
  && Database.equal_states serial result.final

let check = equivalent_serial
