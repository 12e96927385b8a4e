(* Managed server: the continuous-optimization controller in action.

     dune exec examples/managed_server.exe

   A MySQL-like server runs under a one-replica Ocolos_core.Fleet — the
   single-process campaign — which decides when to optimize on its own:
   the stage-1 TopDown gate (Ocolos_core.Daemon.config) triggers the first
   optimization; the replaced layout soaks for verify_s and must hold its
   IPC before it is promoted; later, when the input mix shifts and
   throughput under the now-stale layout regresses, drift detection
   triggers re-profiling and a C_i -> C_{i+1} replacement with garbage
   collection of the old version. The operator never calls OCOLOS
   explicitly. *)

open Ocolos_workloads
module Daemon = Ocolos_core.Daemon
module Fleet = Ocolos_core.Fleet
module Clock = Ocolos_sim.Clock
module Proc = Ocolos_proc.Proc

let () =
  let w = Apps.mysql_like () in
  let proc = Workload.launch w ~input:(Workload.find_input w "read_only") in
  let config =
    { Fleet.default_config with
      Fleet.daemon =
        { Daemon.default_config with
          Daemon.profile_s = 2.0;
          warmup_s = 1.0;
          min_interval_s = 3.0;
          regression_tolerance = 0.10 } }
  in
  let fleet = Fleet.create ~config [| proc |] in
  let version () = Ocolos_core.Ocolos.version (Fleet.ocolos fleet 0) in
  let last_tx = ref 0 in
  let shift_at = 14 in
  Fmt.pr "second  tps   version  controller@.";
  for second = 1 to 30 do
    if second = shift_at then begin
      Workload.set_input w proc (Workload.find_input w "write_only");
      Fmt.pr "------  input shifts: read_only -> write_only ------@."
    end;
    Proc.run ~cycle_limit:(Clock.seconds_to_cycles (float_of_int second)) proc;
    let tx = Proc.transactions proc in
    let tps = tx - !last_tx in
    last_tx := tx;
    let action = Fleet.tick fleet ~now_s:(float_of_int second) in
    Fmt.pr "%6d  %4d  C%-6d  %s@." second tps (version ()) (Fleet.action_to_string action)
  done;
  Fmt.pr "@.%d autonomous replacements; final code version C%d@." (Fleet.rollouts fleet)
    (version ())
