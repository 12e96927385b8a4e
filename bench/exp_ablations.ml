(* Ablations supporting the paper's design discussion (beyond its figures):

   - patch-all-direct-calls vs stack-live-only (Section IV-B: patching all
     calls "does not improve performance though it does slow replacement");
   - function-reordering algorithm: C3 vs Pettis-Hansen vs none
     (Section II-C);
   - block reordering / hot-cold splitting contributions (Section II-B/D);
   - continuous optimization across input shift (Section IV-C): C1 trained
     on input A keeps running when the input shifts to B; re-optimizing to
     C2 recovers the lost throughput. *)

open Ocolos_workloads
open Ocolos_util
module Measure = Ocolos_sim.Measure
module Clock = Ocolos_sim.Clock

let patching_ablation w input =
  Table.section "Ablation — patch all direct calls vs stack-live only (Section IV-B)";
  let orig = Common.steady_orig w input in
  let run patch_all =
    let config =
      { Ocolos_core.Ocolos.default_config with
        Ocolos_core.Ocolos.patch_all_direct_calls = patch_all }
    in
    Measure.ocolos_steady ~config ~warmup:Common.warmup ~profile_s:Common.profile_s
      ~measure:Common.measure_s w ~input
  in
  let live = run false and all = run true in
  Table.print
    ~headers:[| "configuration"; "speedup"; "call sites patched"; "pause (s)" |]
    [ [| "stack-live only (OCOLOS)";
         Table.fmt_speedup (live.Measure.post.Measure.tps /. orig.Measure.tps);
         Table.fmt_int live.Measure.stats.Ocolos_core.Ocolos.call_sites_patched;
         Table.fmt_f ~digits:4 live.Measure.stats.Ocolos_core.Ocolos.pause_seconds |];
      [| "patch all direct calls";
         Table.fmt_speedup (all.Measure.post.Measure.tps /. orig.Measure.tps);
         Table.fmt_int all.Measure.stats.Ocolos_core.Ocolos.call_sites_patched;
         Table.fmt_f ~digits:4 all.Measure.stats.Ocolos_core.Ocolos.pause_seconds |] ]

let pass_ablation w input =
  Table.section "Ablation — BOLT pass contributions (offline, oracle profile)";
  let orig = Common.steady_orig w input in
  let profile = Common.oracle_profile w input in
  let variants =
    [ ("full (blocks+split+C3)", Ocolos_bolt.Bolt.default_config);
      ("no splitting", { Ocolos_bolt.Bolt.default_config with split_functions = false });
      ( "blocks only",
        { Ocolos_bolt.Bolt.default_config with func_order = Ocolos_bolt.Bolt.Original_order } );
      ( "functions only (C3)",
        { Ocolos_bolt.Bolt.default_config with reorder_blocks = false; split_functions = false }
      );
      ( "Pettis-Hansen",
        { Ocolos_bolt.Bolt.default_config with func_order = Ocolos_bolt.Bolt.Pettis_hansen } )
    ]
  in
  Table.print
    ~headers:[| "configuration"; "speedup"; "L1i MPKI"; "taken PKI" |]
    (List.map
       (fun (name, config) ->
         Common.progress "ablation: %s" name;
         let r = Ocolos_bolt.Bolt.run ~config ~binary:w.Workload.binary ~profile () in
         let bolted = Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary r in
         let s =
           Measure.steady ~binary:bolted ~warmup:Common.warmup
             ~measure:Common.measure_s w ~input
         in
         [| name;
            Table.fmt_speedup (s.Measure.tps /. orig.Measure.tps);
            Table.fmt_f ~digits:2 (Ocolos_uarch.Counters.l1i_mpki s.Measure.counters);
            Table.fmt_f ~digits:1
              (Ocolos_uarch.Counters.taken_branches_pki s.Measure.counters) |])
       variants)

(* Continuous optimization under input shift: the scenario the paper
   motivates (inputs change over time; offline profiles go stale) but could
   not evaluate because LLVM-BOLT refuses BOLTed binaries. *)
let continuous_ablation w =
  Table.section "Extension — continuous optimization across an input shift (Section IV-C)";
  let input_a = Workload.find_input w "read_only" in
  let input_b = Workload.find_input w "write_only" in
  let proc = Workload.launch w ~input:input_a in
  let oc = Ocolos_core.Ocolos.attach proc in
  let horizon = ref 0.0 in
  let advance s =
    horizon := !horizon +. s;
    Ocolos_proc.Proc.run ~cycle_limit:(Clock.seconds_to_cycles !horizon) proc
  in
  let tps_over s =
    let t0 = Ocolos_proc.Proc.transactions proc in
    advance s;
    float_of_int (Ocolos_proc.Proc.transactions proc - t0) /. s
  in
  let optimize () =
    Ocolos_core.Ocolos.start_profiling oc;
    advance 2.0;
    let profile, _ = Ocolos_core.Ocolos.stop_profiling oc in
    match Ocolos_core.Step.optimize oc profile with
    | Ok stats -> stats
    | Error reason -> failwith ("continuous ablation: nothing committed: " ^ reason)
  in
  advance 0.5;
  let base_a = tps_over 1.5 in
  let s1 = optimize () in
  advance 0.4;
  (* post-replacement warmup *)
  let c1_on_a = tps_over 2.0 in
  (* The input shifts under the running, already-optimized server. *)
  Workload.set_input w proc input_b;
  advance 0.3;
  let c1_on_b = tps_over 1.5 in
  let s2 = optimize () in
  advance 0.4;
  let c2_on_b = tps_over 2.0 in
  let base_b =
    (Common.steady_orig w input_b).Measure.tps
  in
  Table.print
    ~headers:[| "phase"; "input"; "code"; "tps"; "vs original" |]
    [ [| "1 baseline"; "read_only"; "C0"; Table.fmt_f ~digits:0 base_a; "1.00x" |];
      [| "2 after 1st replacement"; "read_only"; "C1";
         Table.fmt_f ~digits:0 c1_on_a; Table.fmt_speedup (c1_on_a /. base_a) |];
      [| "3 input shifts"; "write_only"; "C1 (stale)";
         Table.fmt_f ~digits:0 c1_on_b; Table.fmt_speedup (c1_on_b /. base_b) |];
      [| "4 after 2nd replacement"; "write_only"; "C2";
         Table.fmt_f ~digits:0 c2_on_b; Table.fmt_speedup (c2_on_b /. base_b) |] ];
  Printf.printf
    "\nGC: round 2 freed %s bytes of C1 code; %d stack-live C1 frames were OSR-migrated\n"
    (Table.fmt_int s2.Ocolos_core.Ocolos.gc_bytes_freed)
    s2.Ocolos_core.Ocolos.frames_migrated;
  Printf.printf "replacement rounds: %d then %d sites patched\n"
    s1.Ocolos_core.Ocolos.call_sites_patched s2.Ocolos_core.Ocolos.call_sites_patched

let run () =
  let w = Lazy.force Common.mysql in
  let input = Workload.find_input w "read_only" in
  patching_ablation w input;
  pass_ablation w input;
  continuous_ablation w
