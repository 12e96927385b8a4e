(* Fleet-scale orchestration (see fleet.mli).

   The one campaign state machine; a single process is a one-replica
   fleet. Per campaign:

     Monitoring --gate--> Profiling --window--> [stop, aggregate, BOLT]
       --> canary replace --> Verifying --soak--> verdict
             |                                  |        |
             | a replica rolls back             | pass   | breach
             v                                  v        v
           Backoff --retry--> (same stage)    promote   staged rollback
             |                                rest      (revert canaries)
             | retry budget spent
             v
       staged rollback
       (revert committed)

   Everything faultable — profiling, aggregation, BOLT, each replica's
   transactional replacement — fails safe to C_i before the fleet diverges;
   any partial rollout is unwound with {!Ocolos.revert}, which has no fault
   cuts. The only way to strand a mixed fleet is the daemon *dying* between
   replicas (Fault.Killed escaping [tick]), which [reattach] recovers. *)

open Ocolos_proc
open Ocolos_uarch
open Ocolos_profiler
module Trace = Ocolos_obs.Trace
module Metrics = Ocolos_obs.Metrics
module Events = Ocolos_obs.Events

type config = {
  canary_fraction : float;
  verify_s : float;
  max_ipc_drop : float;
  max_p99_rise : float;
  canary_ipc_scale : float;
  latency_probe : (int -> float) option;
  daemon : Daemon.config;
}

let default_config =
  { canary_fraction = 0.25;
    verify_s = 2.0;
    max_ipc_drop = 0.10;
    max_p99_rise = 0.50;
    canary_ipc_scale = 1.0;
    latency_probe = None;
    daemon = Daemon.default_config }

type replica = {
  id : int;
  proc : Proc.t;
  oc : Ocolos.t;
  mutable session : Perf.session option;
  mutable prof_base : Counters.t; (* counters at profiling start *)
  mutable baseline_win : Counters.t; (* profiling-window interval *)
  mutable baseline_ipc : float; (* IPC over the profiling window *)
  mutable baseline_p99 : float; (* probe reading at canary start *)
  mutable verify_base : Counters.t; (* counters at canary start *)
  mutable pause_debt : float; (* modeled pause seconds not yet charged as stalls *)
}

(* One rollout cohort's verify-window aggregate: counters are summed across
   the cohort's replicas before deriving rates, so a single noisy replica
   cannot dominate the verdict the way the old per-replica threshold check
   allowed. *)
type cohort = {
  co_ids : int list;
  co_ipc : float; (* aggregate verify-window IPC (canary: scale applied) *)
  co_base_ipc : float; (* aggregate profiling-window IPC *)
  co_ipc_ratio : float; (* co_ipc / co_base_ipc; 0 when no baseline *)
  co_p99 : float; (* mean probe reading across the cohort *)
  co_base_p99 : float; (* mean probe reading at canary start *)
  co_l1i_mpki : float;
  co_itlb_mpki : float;
  co_btb_mpki : float;
  co_taken_pki : float;
}

type readout = {
  ro_version : int;
  ro_canary : cohort;
  ro_rest : cohort option; (* [None] when every replica is a canary *)
  ro_breach : (string * string) option; (* breached signal name, detail *)
}

(* Build a cohort readout from pre-summed counter aggregates. Pure, so the
   test suite can hand-compute expected readouts. *)
let cohort_of ~ids ~baseline ~verify ?(ipc_scale = 1.0) ~p99 ~base_p99 () =
  let ipc = Counters.ipc verify *. ipc_scale in
  let base_ipc = Counters.ipc baseline in
  { co_ids = ids;
    co_ipc = ipc;
    co_base_ipc = base_ipc;
    co_ipc_ratio = (if base_ipc > 0.0 then ipc /. base_ipc else 0.0);
    co_p99 = p99;
    co_base_p99 = base_p99;
    co_l1i_mpki = Counters.l1i_mpki verify;
    co_itlb_mpki = Counters.itlb_mpki verify;
    co_btb_mpki = Counters.btb_misses_pki verify;
    co_taken_pki = Counters.taken_branches_pki verify }

(* The A/B promotion verdict. Both cohorts ran the same traffic through the
   same wall-clock window, but possibly heterogeneous inputs, so raw IPCs
   are not comparable across cohorts — each cohort is normalized against
   its own profiling-window baseline first (difference-in-differences): the
   canary breaches when its verify/baseline ratio falls more than
   [max_ipc_drop] below the rest-of-fleet ratio. With no rest cohort (every
   replica a canary) the canary is judged against its own baseline alone
   — the single-process campaign's verdict. p99 is symmetric with the
   guard on the other side. *)
let judge config ~canary ~rest =
  let ipc_guard = 1.0 -. config.max_ipc_drop in
  let ipc_breach =
    if canary.co_base_ipc <= 0.0 then None
    else
      match rest with
      | Some rc when rc.co_ipc_ratio > 0.0 ->
        if canary.co_ipc_ratio < ipc_guard *. rc.co_ipc_ratio then
          Some
            ( "ipc",
              Fmt.str "canary cohort IPC ratio %.2f fell below rest-of-fleet %.2f (guard %.0f%%)"
                canary.co_ipc_ratio rc.co_ipc_ratio
                (100.0 *. config.max_ipc_drop) )
        else None
      | _ ->
        if canary.co_ipc < ipc_guard *. canary.co_base_ipc then
          Some
            ( "ipc",
              Fmt.str "canary cohort IPC regressed %.2f -> %.2f (guard %.0f%%)"
                canary.co_base_ipc canary.co_ipc
                (100.0 *. config.max_ipc_drop) )
        else None
  in
  match ipc_breach with
  | Some _ -> ipc_breach
  | None ->
    if canary.co_base_p99 <= 0.0 then None
    else begin
      let p99_guard = 1.0 +. config.max_p99_rise in
      let canary_ratio = canary.co_p99 /. canary.co_base_p99 in
      match rest with
      | Some rc when rc.co_base_p99 > 0.0 && rc.co_p99 > 0.0 ->
        let rest_ratio = rc.co_p99 /. rc.co_base_p99 in
        if canary_ratio > p99_guard *. rest_ratio then
          Some
            ( "p99",
              Fmt.str "canary cohort p99 ratio %.2f rose above rest-of-fleet %.2f (guard +%.0f%%)"
                canary_ratio rest_ratio
                (100.0 *. config.max_p99_rise) )
        else None
      | _ ->
        if canary.co_p99 > p99_guard *. canary.co_base_p99 then
          Some
            ( "p99",
              Fmt.str "canary cohort p99 rose %.3fs -> %.3fs (guard +%.0f%%)"
                canary.co_base_p99 canary.co_p99
                (100.0 *. config.max_p99_rise) )
        else None
    end

type stage = Canary | Promotion

type phase =
  | Monitoring
  | Profiling of { since : float }
  | Verifying of { until_s : float; canaries : int list; result : Ocolos_bolt.Bolt.result }
  | Backoff of {
      until_s : float;
      attempt : int; (* the attempt the retry will be *)
      point : string; (* where the previous attempt rolled back *)
      stage : stage;
      replica : replica; (* the replica whose transaction rolled back *)
      rest : replica list; (* the stage's replicas after it *)
      result : Ocolos_bolt.Bolt.result;
    }

type t = {
  config : config;
  guard : Guard.t;
  reps : replica array;
  mutable phase : phase;
  mutable staged : (replica * Ocolos.snapshot) list; (* committed, newest first *)
  mutable last_counters : Counters.t;
  mutable last_tick_s : float;
  mutable best_tps : float;
  mutable last_replacement_s : float;
  mutable rollouts : int;
  mutable rollbacks : int;
  mutable restart_reverted : int list;
  mutable last_readout : readout option;
}

type action =
  | Idle
  | Started_profiling of string
  | Canary_started of { version : int; canaries : int list }
  | Promoted of { version : int; replicas : int }
  | Rolled_back of { reason : string; reverted : int list }
  | Campaign_aborted of string
  | Breaker_open of { until_s : float }

let action_to_string = function
  | Idle -> "idle"
  | Started_profiling reason -> "profiling: " ^ reason
  | Canary_started { version; canaries } ->
    Fmt.str "canary C%d on replicas %a" version
      Fmt.(list ~sep:(any ",") int)
      canaries
  | Promoted { version; replicas } -> Fmt.str "promoted C%d fleet-wide (%d replicas)" version replicas
  | Rolled_back { reason; reverted } ->
    Fmt.str "rolled back (%s): reverted replicas %a" reason
      Fmt.(list ~sep:(any ",") int)
      reverted
  | Campaign_aborted reason -> Fmt.str "campaign aborted (%s), layout kept" reason
  | Breaker_open { until_s } -> Fmt.str "breaker open until %.1fs" until_s

let fleet_counters t =
  Array.fold_left (fun acc r -> Counters.add acc (Proc.total_counters r.proc)) Counters.zero
    t.reps

let make ~attach ?(config = default_config) ?ocolos_config ?guard procs =
  if Array.length procs = 0 then invalid_arg "Fleet: empty fleet";
  let guard = match guard with Some g -> g | None -> Guard.create () in
  let reps =
    Array.mapi
      (fun id proc ->
        { id;
          proc;
          oc = attach ?config:ocolos_config proc;
          session = None;
          prof_base = Counters.zero;
          baseline_win = Counters.zero;
          baseline_ipc = 0.0;
          baseline_p99 = 0.0;
          verify_base = Counters.zero;
          pause_debt = 0.0 })
      procs
  in
  let t =
    { config;
      guard;
      reps;
      phase = Monitoring;
      staged = [];
      last_counters = Counters.zero;
      last_tick_s = 0.0;
      best_tps = 0.0;
      last_replacement_s = neg_infinity;
      rollouts = 0;
      rollbacks = 0;
      restart_reverted = [];
      last_readout = None }
  in
  t.last_counters <- fleet_counters t;
  t

let create ?config ?ocolos_config ?guard procs =
  make ~attach:(fun ?config proc -> Ocolos.attach ?config proc) ?config ?ocolos_config ?guard
    procs

(* A layout signature for mixed-fleet detection after reattach: the
   reconstructed version number is always 1 for any replica with injected
   code, so compare where the functions actually live. *)
let layout_signature (oc : Ocolos.t) =
  let b = Ocolos.current_binary oc in
  Array.to_list b.Ocolos_binary.Binary.symbols
  |> List.map (fun (s : Ocolos_binary.Binary.func_sym) ->
         (s.Ocolos_binary.Binary.fs_fid, s.Ocolos_binary.Binary.fs_entry))
  |> List.sort compare

let reattach ?config ?ocolos_config ?guard procs =
  let t =
    make ~attach:(fun ?config proc -> Ocolos.reattach ?config proc) ?config ?ocolos_config
      ?guard procs
  in
  let sigs = Array.map (fun r -> layout_signature r.oc) t.reps in
  let homogeneous = Array.for_all (fun s -> s = sigs.(0)) sigs in
  if not homogeneous then begin
    (* A rollout died between replicas. Re-running BOLT cannot reproduce the
       dead campaign's exact layout, so the only reachable homogeneous state
       is C0 — always resident, always revertible to. *)
    Array.iter
      (fun r ->
        if Ocolos.version r.oc > 0 then begin
          ignore (Ocolos.revert r.oc (Ocolos.c0_snapshot r.oc));
          t.restart_reverted <- r.id :: t.restart_reverted
        end)
      t.reps;
    t.restart_reverted <- List.rev t.restart_reverted;
    Events.emit "fleet.restart_reverted"
      [ ("replicas", Trace.I (List.length t.restart_reverted)) ]
  end;
  t.last_counters <- fleet_counters t;
  t

let canary_count t =
  let n = Array.length t.reps in
  max 1 (min n (int_of_float (ceil (t.config.canary_fraction *. float_of_int n))))

let replica_label r = [ ("replica", string_of_int r.id) ]

let record_versions t =
  Array.iter
    (fun r ->
      Metrics.record ~labels:(replica_label r) "ocolos_fleet_replica_version"
        (float_of_int (Ocolos.version r.oc)))
    t.reps

(* Unwind a partial rollout: revert every replica committed this campaign,
   newest first. No fault cuts anywhere on this path. *)
let unwind t =
  let reverted =
    List.map
      (fun (r, sn) ->
        Trace.in_replica r.id @@ fun () ->
        let rv = Ocolos.revert r.oc sn in
        r.pause_debt <- r.pause_debt +. rv.Ocolos.rv_pause_seconds;
        r.id)
      t.staged
  in
  t.staged <- [];
  List.sort compare reverted

let rollback t ~now_s ~reason =
  let reverted = unwind t in
  t.phase <- Monitoring;
  t.best_tps <- 0.0;
  t.last_replacement_s <- now_s;
  t.rollbacks <- t.rollbacks + 1;
  Guard.campaign_failed t.guard ~now_s;
  Events.emit "fleet.rolled_back"
    [ ("reason", Trace.S reason); ("reverted", Trace.I (List.length reverted)) ];
  record_versions t;
  Rolled_back { reason; reverted }

(* Shadow divergence on a replica's replacement: wrong code nearly reached
   the fleet. The divergent replica's own transaction already unwound
   itself; revert every replica staged earlier this campaign and trip the
   breaker immediately — campaign_failed's gradual counting is for
   campaigns that fail {e safely}. *)
let shadow_diverged t ~now_s ~reason =
  let reverted = unwind t in
  t.phase <- Monitoring;
  t.best_tps <- 0.0;
  t.last_replacement_s <- now_s;
  t.rollbacks <- t.rollbacks + 1;
  Guard.trip_breaker t.guard ~now_s ~reason;
  Metrics.count "ocolos_fleet_shadow_reverts_total" 1;
  Events.emit "fleet.rolled_back"
    [ ("reason", Trace.S reason); ("reverted", Trace.I (List.length reverted)) ];
  record_versions t;
  Rolled_back { reason; reverted }

let abort t ~now_s ~reason =
  t.phase <- Monitoring;
  t.best_tps <- 0.0;
  t.last_replacement_s <- now_s;
  Guard.campaign_failed t.guard ~now_s;
  Events.emit "fleet.campaign_aborted" [ ("reason", Trace.S reason) ];
  Campaign_aborted reason

(* Replace on one replica, staging its pre-replace snapshot for rollback.
   The shadow check (sampled by [shadow_every], counting rollouts) runs as
   the transaction's [verify] gate: a divergent replica unwinds itself
   byte-exactly inside its own transaction and was never staged, so
   [`Diverged] tells the caller only the {e other} staged replicas need
   reverting. *)
let stage_replace t r result =
  Trace.in_replica r.id @@ fun () ->
  let sn = Ocolos.snapshot r.oc in
  r.verify_base <- Proc.total_counters r.proc;
  let shadowing =
    let every = t.config.daemon.Daemon.shadow_every in
    every > 0 && t.rollouts mod every = 0
  in
  match Step.commit ~shadow:shadowing r.oc result with
  | Txn.Committed stats ->
    r.pause_debt <- r.pause_debt +. stats.Ocolos.pause_seconds;
    t.staged <- (r, sn) :: t.staged;
    `Staged
  | Txn.Diverged { dv_reason; _ } -> `Diverged dv_reason
  | Txn.Rolled_back rb -> `Rolled_back rb.Txn.rb_point

let probe t r = match t.config.latency_probe with Some probe -> probe r.id | None -> 0.0

(* The canary stage is fully staged: anchor the rest-of-fleet cohort's
   verify window at the same instant as the canaries' (A/B comparison
   needs both cohorts measured over the same soak), then start the soak. *)
let start_verify t ~now_s ~result =
  let k = canary_count t in
  let ids = List.init k Fun.id in
  let version = Ocolos.version t.reps.(0).oc in
  Array.iter
    (fun r ->
      if r.id >= k then begin
        r.verify_base <- Proc.total_counters r.proc;
        r.baseline_p99 <- probe t r
      end)
    t.reps;
  t.phase <- Verifying { until_s = now_s +. t.config.verify_s; canaries = ids; result };
  Events.emit "fleet.canary_started" [ ("version", Trace.I version); ("canaries", Trace.I k) ];
  record_versions t;
  Canary_started { version; canaries = ids }

let promote t ~now_s =
  let version = Ocolos.version t.reps.(0).oc in
  t.staged <- [];
  t.phase <- Monitoring;
  t.best_tps <- 0.0;
  t.last_replacement_s <- now_s;
  t.rollouts <- t.rollouts + 1;
  Guard.campaign_succeeded t.guard;
  Events.emit "fleet.promoted"
    [ ("version", Trace.I version); ("replicas", Trace.I (Array.length t.reps)) ];
  record_versions t;
  Promoted { version; replicas = Array.length t.reps }

let stage_name = function Canary -> "canary" | Promotion -> "promotion"

(* Replace on the stage's remaining replicas in order, then finish the
   stage (start the canary soak, or promote). A replica whose
   transaction rolled back is retried with the same BOLT result after an
   exponential backoff (seeded +/-25% jitter, so campaigns never
   synchronize); only once [max_retries] extra attempts are spent does the
   fleet take the staged rollback. [attempt] counts this replica's tries,
   1 for the first. A shadow divergence is never retried: replaying the
   result would diverge identically. *)
let rec roll_out t ~now_s ~stage ~result ~attempt = function
  | [] -> (
    match stage with Canary -> start_verify t ~now_s ~result | Promotion -> promote t ~now_s)
  | r :: rest -> (
    match stage_replace t r result with
    | `Staged ->
      if stage = Canary then r.baseline_p99 <- probe t r;
      roll_out t ~now_s ~stage ~result ~attempt:1 rest
    | `Diverged why ->
      shadow_diverged t ~now_s ~reason:(Fmt.str "%s shadow divergence: %s" (stage_name stage) why)
    | `Rolled_back point ->
      let policy = t.config.daemon in
      if attempt > policy.Daemon.max_retries then
        rollback t ~now_s ~reason:(Fmt.str "%s replace rolled back at %s" (stage_name stage) point)
      else begin
        let delay =
          Guard.jittered t.guard
            (policy.Daemon.retry_backoff_s *. (2.0 ** float_of_int (attempt - 1)))
        in
        t.phase <-
          Backoff
            { until_s = now_s +. delay; attempt = attempt + 1; point; stage; replica = r; rest;
              result };
        Idle
      end)

(* The backoff elapsed: run the retry, counted here and nowhere else. *)
let retry t ~now_s ~attempt ~point ~stage ~replica ~rest ~result =
  Events.emit "fleet.retry"
    [ ("replica", Trace.I replica.id); ("attempt", Trace.I attempt); ("point", Trace.S point) ];
  roll_out t ~now_s ~stage ~result ~attempt (replica :: rest)

(* Profiling window complete: stop every replica's session, aggregate the
   decimated streams, BOLT once, then start the canary stage. *)
let finish_profiling t ~now_s =
  let keep_every = Array.length t.reps in
  let kept =
    Array.map
      (fun r ->
        Trace.in_replica r.id @@ fun () ->
        let session =
          match r.session with
          | Some s -> s
          | None -> invalid_arg "Fleet: replica lost its profiling session"
        in
        r.session <- None;
        r.baseline_win <- Counters.diff (Proc.total_counters r.proc) r.prof_base;
        r.baseline_ipc <- Counters.ipc r.baseline_win;
        let samples = Perf.stop session in
        Perf2bolt.decimate ~keep_every ~phase:(r.id mod keep_every) samples)
      t.reps
  in
  let oc0 = t.reps.(0).oc in
  let fault = (Ocolos.config oc0).Ocolos.fault in
  match
    let profile =
      Perf2bolt.convert_sources ~binary:(Ocolos.current_binary oc0) ?fault
        (Array.to_list kept)
    in
    let records = Array.fold_left (fun acc s -> acc + Perf.record_count s) 0 kept in
    let perf2bolt_s =
      Cost.perf2bolt_seconds (Ocolos.config oc0).Ocolos.cost ~records
    in
    if Guard.check_deadline t.guard ~phase:`Perf2bolt ~seconds:perf2bolt_s then
      Error "watchdog: perf2bolt deadline"
    else
      (* One build covers the whole fleet: every replica would commit the
         same BOLT result, so a Tier-1 rejection aborts before any replica
         pauses. *)
      Step.build t.guard oc0 profile
  with
  | Error reason -> abort t ~now_s ~reason
  | exception Ocolos_util.Fault.Injected (point, _) ->
    abort t ~now_s ~reason:(Fmt.str "fault at %s" point)
  | Ok (result, _) ->
    roll_out t ~now_s ~stage:Canary ~result ~attempt:1
      (Array.to_list (Array.sub t.reps 0 (canary_count t)))

(* Sum a cohort's profiling-window and verify-window counter intervals. *)
let cohort_totals t ids =
  List.fold_left
    (fun (base, verify) id ->
      let r = t.reps.(id) in
      ( Counters.add base r.baseline_win,
        Counters.add verify (Counters.diff (Proc.total_counters r.proc) r.verify_base) ))
    (Counters.zero, Counters.zero) ids

let mean_probe t ids =
  match (t.config.latency_probe, ids) with
  | None, _ | _, [] -> 0.0
  | Some probe, ids ->
    List.fold_left (fun acc id -> acc +. probe id) 0.0 ids
    /. float_of_int (List.length ids)

let mean_base_p99 t ids =
  match ids with
  | [] -> 0.0
  | ids ->
    List.fold_left (fun acc id -> acc +. t.reps.(id).baseline_p99) 0.0 ids
    /. float_of_int (List.length ids)

let export_cohort name c =
  let labels = [ ("cohort", name) ] in
  Metrics.record ~labels "ocolos_fleet_cohort_ipc" c.co_ipc;
  Metrics.record ~labels "ocolos_fleet_cohort_ipc_baseline" c.co_base_ipc;
  Metrics.record ~labels "ocolos_fleet_cohort_ipc_ratio" c.co_ipc_ratio;
  Metrics.record ~labels "ocolos_fleet_cohort_p99_seconds" c.co_p99;
  Metrics.record ~labels "ocolos_fleet_cohort_p99_baseline_seconds" c.co_base_p99;
  Metrics.record ~labels "ocolos_fleet_cohort_l1i_mpki" c.co_l1i_mpki;
  Metrics.record ~labels "ocolos_fleet_cohort_itlb_mpki" c.co_itlb_mpki;
  Metrics.record ~labels "ocolos_fleet_cohort_btb_mpki" c.co_btb_mpki;
  Metrics.record ~labels "ocolos_fleet_cohort_taken_pki" c.co_taken_pki

(* Canary soak complete: build both cohorts' A/B readout, judge, then widen
   or unwind. *)
let finish_verify t ~now_s ~canaries ~result =
  (* Per-replica canary gauges stay for dashboards; the verdict is taken at
     cohort level below. *)
  List.iter
    (fun id ->
      let r = t.reps.(id) in
      let ipc =
        Counters.ipc (Counters.diff (Proc.total_counters r.proc) r.verify_base)
        *. t.config.canary_ipc_scale
      in
      Metrics.record ~labels:(replica_label r) "ocolos_fleet_canary_ipc" ipc;
      Metrics.record ~labels:(replica_label r) "ocolos_fleet_canary_ipc_baseline" r.baseline_ipc;
      match t.config.latency_probe with
      | None -> ()
      | Some probe ->
        Metrics.record ~labels:(replica_label r) "ocolos_fleet_canary_p99_seconds" (probe id))
    canaries;
  let rest_ids =
    Array.to_list t.reps
    |> List.filter_map (fun r -> if List.mem r.id canaries then None else Some r.id)
  in
  let version = Ocolos.version t.reps.(List.hd canaries).oc in
  let canary_base, canary_verify = cohort_totals t canaries in
  let ro_canary =
    cohort_of ~ids:canaries ~baseline:canary_base ~verify:canary_verify
      ~ipc_scale:t.config.canary_ipc_scale ~p99:(mean_probe t canaries)
      ~base_p99:(mean_base_p99 t canaries) ()
  in
  let ro_rest =
    match rest_ids with
    | [] -> None
    | ids ->
      let base, verify = cohort_totals t ids in
      Some
        (cohort_of ~ids ~baseline:base ~verify ~p99:(mean_probe t ids)
           ~base_p99:(mean_base_p99 t ids) ())
  in
  let ro_breach = judge t.config ~canary:ro_canary ~rest:ro_rest in
  t.last_readout <- Some { ro_version = version; ro_canary; ro_rest; ro_breach };
  export_cohort "canary" ro_canary;
  (match ro_rest with Some c -> export_cohort "rest" c | None -> ());
  Events.emit "fleet.verify_readout"
    ([ ("version", Trace.I version);
       ("canary_ipc_ratio", Trace.F ro_canary.co_ipc_ratio);
       ( "rest_ipc_ratio",
         Trace.F (match ro_rest with Some c -> c.co_ipc_ratio | None -> 0.0) );
       ("canary_l1i_mpki", Trace.F ro_canary.co_l1i_mpki);
       ("canary_taken_pki", Trace.F ro_canary.co_taken_pki) ]
    @
    match ro_breach with
    | Some (signal, detail) -> [ ("breach", Trace.S signal); ("detail", Trace.S detail) ]
    | None -> [ ("breach", Trace.S "none") ]);
  match ro_breach with
  | Some (_, reason) -> rollback t ~now_s ~reason
  | None ->
    roll_out t ~now_s ~stage:Promotion ~result ~attempt:1
      (Array.to_list t.reps |> List.filter (fun r -> not (List.mem r.id canaries)))

let tick t ~now_s =
  let counters = fleet_counters t in
  let interval = Counters.diff counters t.last_counters in
  let dt = now_s -. t.last_tick_s in
  t.last_counters <- counters;
  t.last_tick_s <- now_s;
  if dt <= 0.0 || now_s < t.config.daemon.Daemon.warmup_s then Idle
  else begin
    let tps = float_of_int interval.Counters.transactions /. dt in
    let td = Counters.topdown interval in
    match t.phase with
    | Profiling { since } ->
      if now_s -. since >= t.config.daemon.Daemon.profile_s then finish_profiling t ~now_s
      else Idle
    | Verifying { until_s; canaries; result } ->
      if now_s >= until_s then finish_verify t ~now_s ~canaries ~result else Idle
    | Backoff { until_s; attempt; point; stage; replica; rest; result } ->
      if now_s >= until_s then retry t ~now_s ~attempt ~point ~stage ~replica ~rest ~result
      else Idle
    | Monitoring -> (
      t.best_tps <- Float.max t.best_tps tps;
      let reason =
        Daemon.decide t.config.daemon ~replacements:t.rollouts
          ~version:(Ocolos.version t.reps.(0).oc) ~now_s
          ~last_replacement_s:t.last_replacement_s ~tps ~best_tps:t.best_tps
          ~frontend:td.Counters.frontend
      in
      match reason with
      | Some why ->
        if Guard.allow_campaign t.guard ~now_s then begin
          Array.iter
            (fun r ->
              Trace.in_replica r.id @@ fun () ->
              r.prof_base <- Proc.total_counters r.proc;
              r.session <-
                Some
                  (Perf.start
                     ~cfg:(Ocolos.config r.oc).Ocolos.perf
                     ?fault:(Ocolos.config r.oc).Ocolos.fault r.proc))
            t.reps;
          t.phase <- Profiling { since = now_s };
          Events.emit "fleet.profiling_started" [ ("reason", Trace.S why) ];
          Started_profiling why
        end
        else begin
          match Guard.breaker_state t.guard with
          | Guard.Open { until_s } -> Breaker_open { until_s }
          | Guard.Closed | Guard.Half_open -> Idle (* unreachable *)
        end
      | None -> Idle)
  end

let replicas t = Array.length t.reps
let ocolos t i = t.reps.(i).oc
let procs t = Array.map (fun r -> r.proc) t.reps
let guard t = t.guard
let versions t = Array.to_list t.reps |> List.map (fun r -> Ocolos.version r.oc)

let converged t =
  let vs = versions t in
  match vs with [] -> true | v :: rest -> List.for_all (fun x -> x = v) rest

let mixed t = not (converged t)
let monitoring t = match t.phase with Monitoring -> true | _ -> false
let rollouts t = t.rollouts
let rollbacks t = t.rollbacks
let reverted_on_reattach t = t.restart_reverted
let last_readout t = t.last_readout

let take_pause_debt t i =
  let r = t.reps.(i) in
  let d = r.pause_debt in
  r.pause_debt <- 0.0;
  d
