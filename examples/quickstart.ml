(* Quickstart: optimize a running process with OCOLOS, end to end.

     dune exec examples/quickstart.exe

   Walks the whole public API once: build a workload, launch a simulated
   server process, attach OCOLOS, profile the live process, run BOLT and
   validate its output in the background, replace the code under the
   shadow check, and compare throughput. *)

open Ocolos_workloads
module Proc = Ocolos_proc.Proc
module Ocolos = Ocolos_core.Ocolos
module Step = Ocolos_core.Step
module Clock = Ocolos_sim.Clock

let () =
  (* 1. A benchmark application: a scaled-down MySQL-like server with
     Sysbench-style inputs. Any Ir.program compiled with Workload.build
     works the same way. *)
  let w = Apps.memcached_like () in
  let input = Workload.find_input w "set10_get90" in
  Fmt.pr "workload: %a@." Ocolos_binary.Binary.pp_summary w.Workload.binary;

  (* 2. Launch it: a process with worker threads executing the server loop
     on simulated cores. *)
  let proc = Workload.launch w ~input in

  (* 3. Attach OCOLOS (the ptrace analog). This parses direct-call sites
     offline and installs the function-pointer creation hook. *)
  let oc = Ocolos.attach proc in

  (* 4. Let the server warm up, then measure baseline throughput. *)
  let horizon = ref 0.0 in
  let run_seconds s =
    horizon := !horizon +. s;
    Proc.run ~cycle_limit:(Clock.seconds_to_cycles !horizon) proc
  in
  run_seconds 0.5;
  let tx0 = Proc.transactions proc in
  run_seconds 1.0;
  let baseline = float_of_int (Proc.transactions proc - tx0) in
  Fmt.pr "baseline: %.0f transactions/s@." baseline;

  (* 5. Profile the live process with LBR sampling while it keeps serving
     traffic. *)
  Ocolos.start_profiling oc;
  run_seconds 1.5;
  let profile, perf2bolt_s = Ocolos.stop_profiling oc in
  Fmt.pr "profile: %a (perf2bolt: %.2f s)@." Ocolos_profiler.Profile.pp_summary profile
    perf2bolt_s;

  (* 6. BOLT in the background: CFG reconstruction, basic-block reordering
     (ExtTSP), hot/cold splitting, C3 function reordering. Step.build then
     runs the Tier-1 translation validator over the result; a rejected
     result never reaches the process. *)
  let result, bolt_s =
    match Step.build (Ocolos_core.Guard.create ()) oc profile with
    | Ok built -> built
    | Error reason -> failwith reason
  in
  Fmt.pr "BOLT: %d functions optimized into a new .text at 0x%x (%.2f s)@."
    result.Ocolos_bolt.Bolt.funcs_reordered result.Ocolos_bolt.Bolt.bolt_base bolt_s;

  (* 7. Stop-the-world code replacement as one transaction: inject C1,
     patch v-tables and stack-live direct calls, replay a clone of the old
     and of the new process side by side (the Tier-2 shadow check), and
     commit only if they agree — otherwise every mutation is undone. *)
  let stats =
    match Step.(committed (commit oc result)) with
    | Ok stats -> stats
    | Error reason -> failwith reason
  in
  Fmt.pr
    "replacement: %d v-table entries + %d call sites patched, %d funcs on stack, pause %.3f s@."
    stats.Ocolos.vtable_entries_patched stats.Ocolos.call_sites_patched
    stats.Ocolos.stack_live_funcs stats.Ocolos.pause_seconds;

  (* 8. Measure optimized throughput. *)
  let tx1 = Proc.transactions proc in
  run_seconds 1.0;
  let optimized = float_of_int (Proc.transactions proc - tx1) in
  Fmt.pr "optimized: %.0f transactions/s — %.2fx speedup@." optimized (optimized /. baseline)
