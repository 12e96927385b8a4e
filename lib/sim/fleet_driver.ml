(* Fleet rollout driver (see fleet_driver.mli). *)

open Ocolos_workloads
open Ocolos_proc
module Fleet = Ocolos_core.Fleet
module Ocolos = Ocolos_core.Ocolos
module Counters = Ocolos_uarch.Counters
module Stats = Ocolos_util.Stats
module Metrics = Ocolos_obs.Metrics
module Trace = Ocolos_obs.Trace
module Layout_health = Ocolos_obs.Layout_health
module Func_attrib = Ocolos_profiler.Func_attrib

type replica_report = {
  fr_id : int;
  fr_input : string;
  fr_version : int;
  fr_transactions : int;
  fr_matched : int;
  fr_p50 : float;
  fr_p99 : float;
  fr_queue_peak : int;
}

type report = {
  fd_replicas : replica_report list;
  fd_actions : (int * Fleet.action) list;
  fd_fleet_p50 : float;
  fd_fleet_p99 : float;
  fd_versions : int list;
  fd_converged : bool;
  fd_rollouts : int;
  fd_rollbacks : int;
}

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Fmt.str "fleet: versions [%s] %s  rollouts %d  rollbacks %d  p50 %.3fs  p99 %.3fs\n"
       (String.concat "; " (List.map string_of_int r.fd_versions))
       (if r.fd_converged then "(converged)" else "(MIXED)")
       r.fd_rollouts r.fd_rollbacks r.fd_fleet_p50 r.fd_fleet_p99);
  List.iter
    (fun fr ->
      Buffer.add_string b
        (Fmt.str
           "  replica %d (%s): C%d  tx %d  served %d  p50 %.3fs  p99 %.3fs  queue<=%d\n"
           fr.fr_id fr.fr_input fr.fr_version fr.fr_transactions fr.fr_matched fr.fr_p50
           fr.fr_p99 fr.fr_queue_peak))
    r.fd_replicas;
  List.iter
    (fun (tick, a) ->
      Buffer.add_string b (Fmt.str "  t=%2ds %s\n" tick (Fleet.action_to_string a)))
    r.fd_actions;
  Buffer.contents b

let run ?(replicas = 4) ?(seed = 1) ?(ticks = 30) ?(arrival_rate = 40.0)
    ?(inputs = [ "a" ]) ?config ?ocolos_config ?workload ?health () =
  if replicas < 1 then invalid_arg "Fleet_driver.run: replicas < 1";
  if inputs = [] then invalid_arg "Fleet_driver.run: empty input list";
  let w = match workload with Some w -> w | None -> Apps.tiny ~tx_limit:None () in
  let input_names = Array.init replicas (fun i -> List.nth inputs (i mod List.length inputs)) in
  let procs =
    Array.init replicas (fun i ->
        Workload.launch ~seed:(seed + i) w ~input:(Workload.find_input w input_names.(i)))
  in
  let ols =
    Array.init replicas (fun i ->
        Openloop.create
          ~arrivals:
            (Openloop.poisson ~rate:arrival_rate ~seed:((seed * 10_000) + i)
               ~until_s:(float_of_int ticks)))
  in
  let probe i = Openloop.p99 ols.(i) in
  let config =
    let base = match config with Some c -> c | None -> Fleet.default_config in
    { base with Fleet.latency_probe = Some probe }
  in
  let fleet = Fleet.create ~config ?ocolos_config ?guard:None procs in
  let queue_peak = Array.make replicas 0 in
  let actions = ref [] in
  (* Layout-health recording is armed only when a caller passes an
     accumulator (the CLI [explain] path): per-replica front-end attribution
     sessions plus a counter snapshot per replica so each tick yields one
     per-version window. *)
  let attribs = Option.map (fun lh -> (lh, Array.map Func_attrib.start procs)) health in
  let prev_counters = Array.map Proc.total_counters procs in
  for i = 0 to ticks - 1 do
    let now_s = float_of_int (i + 1) in
    Array.iteri
      (fun id proc ->
        Trace.in_replica id @@ fun () ->
        (* Charge the previous tick's stop-the-world pauses as stalls
           before this window runs: a replacement empties serving capacity
           out of the following slice, and the open-loop queue shows it. *)
        let debt = Fleet.take_pause_debt fleet id in
        if debt > 0.0 then
          Proc.stall_all proc ~cycles:(Clock.seconds_to_cycles debt) ~category:`Backend;
        (* The code version live during this tick's window: Fleet.tick runs
           after the replicas advance, so the version read now is the one
           this window executed under. *)
        let oc = Fleet.ocolos fleet id in
        let version = Ocolos.version oc in
        let binary = Ocolos.current_binary oc in
        Proc.run ~cycle_limit:(Clock.seconds_to_cycles now_s) proc;
        (match attribs with
        | None -> ()
        | Some (lh, sessions) ->
          let total = Proc.total_counters proc in
          let interval = Counters.diff total prev_counters.(id) in
          prev_counters.(id) <- total;
          Layout_health.record_window lh ~replica:id ~version
            (Counters.to_health_sample interval);
          List.iter
            (fun (fid, name, fc) -> Layout_health.record_func_window lh ~version ~fid ~name fc)
            (Func_attrib.drain sessions.(id) binary));
        let completed = (Proc.total_counters proc).Counters.transactions in
        let ol = ols.(id) in
        let depth_before = Openloop.queue_depth ol ~now_s in
        if depth_before > queue_peak.(id) then queue_peak.(id) <- depth_before;
        Metrics.sample
          ~labels:[ ("replica", string_of_int id) ]
          ~buckets:Metrics.queue_depth_buckets "ocolos_fleet_queue_depth"
          (float_of_int depth_before);
        Openloop.advance ol ~now_s ~completed)
      procs;
    (match Fleet.tick fleet ~now_s with
    | Fleet.Idle -> ()
    (* An open breaker repeats every tick until it cools; one entry says it. *)
    | Fleet.Breaker_open _
      when match !actions with (_, Fleet.Breaker_open _) :: _ -> true | _ -> false -> ()
    | a -> actions := (i, a) :: !actions)
  done;
  (match attribs with
  | None -> ()
  | Some (_, sessions) -> Array.iter Func_attrib.stop sessions);
  let versions = Fleet.versions fleet in
  let fd_replicas =
    Array.to_list
      (Array.mapi
         (fun id proc ->
           let ol = ols.(id) in
           let labels = [ ("replica", string_of_int id) ] in
           Array.iter
             (Metrics.sample ~labels ~buckets:Metrics.latency_buckets
                "ocolos_fleet_request_latency_seconds")
             (Openloop.latencies ol);
           Metrics.record ~labels "ocolos_fleet_p99_seconds" (Openloop.p99 ol);
           { fr_id = id;
             fr_input = input_names.(id);
             fr_version = List.nth versions id;
             fr_transactions = (Proc.total_counters proc).Counters.transactions;
             fr_matched = Openloop.matched ol;
             fr_p50 = Openloop.p50 ol;
             fr_p99 = Openloop.p99 ol;
             fr_queue_peak = queue_peak.(id) })
         procs)
  in
  let merged = Array.concat (Array.to_list (Array.map Openloop.latencies ols)) in
  let pct p = if Array.length merged = 0 then 0.0 else Stats.percentile merged p in
  let fleet_p99 = pct 99.0 in
  Metrics.record ~labels:[ ("replica", "fleet") ] "ocolos_fleet_p99_seconds" fleet_p99;
  ( { fd_replicas;
      fd_actions = List.rev !actions;
      fd_fleet_p50 = pct 50.0;
      fd_fleet_p99 = fleet_p99;
      fd_versions = versions;
      fd_converged = Fleet.converged fleet;
      fd_rollouts = Fleet.rollouts fleet;
      fd_rollbacks = Fleet.rollbacks fleet },
    fleet )
