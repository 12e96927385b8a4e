(* MySQL case study (paper Section VI-C): watch throughput and tail latency
   around a code replacement, then inspect why the optimized code wins —
   the front-end counters before and after, and the TopDown shift.

     dune exec examples/mysql_case_study.exe *)

open Ocolos_workloads
open Ocolos_uarch
module Timeline = Ocolos_sim.Timeline
module Measure = Ocolos_sim.Measure

let bar width frac =
  let n = int_of_float (frac *. float_of_int width) in
  String.make (max 0 (min width n)) '#'

let () =
  let w = Apps.mysql_like () in
  let input = Workload.find_input w "read_only" in
  Fmt.pr "MySQL-like server, input %s, %d worker threads@." input.Input.name
    w.Workload.nthreads;

  (* Live timeline through the five regions of the paper's Fig. 7. *)
  let t = Timeline.run ~warmup_s:6 ~profile_s:3 ~post_s:8 w ~input in
  let peak =
    List.fold_left (fun a (p : Timeline.point) -> Float.max a p.Timeline.tps) 1.0
      t.Timeline.points
  in
  Fmt.pr "@.%-4s %-15s %-40s %8s %10s@." "sec" "region" "throughput" "tps" "p95 (ms)";
  List.iter
    (fun (p : Timeline.point) ->
      Fmt.pr "%-4d %-15s %-40s %8.0f %10.2f@." p.Timeline.second
        (Timeline.region_name p.Timeline.region)
        (bar 40 (p.Timeline.tps /. peak))
        p.Timeline.tps p.Timeline.p95_ms)
    t.Timeline.points;
  Fmt.pr "@.pause: %.3f s, perf2bolt %.2f s, bolt %.2f s@."
    t.Timeline.stats.Ocolos_core.Ocolos.pause_seconds t.Timeline.perf2bolt_seconds
    t.Timeline.bolt_seconds;

  (* Why it wins: front-end counters, original vs OCOLOS (the MYSQLparse
     story — the hot parser stops missing in the L1i). *)
  let orig = Measure.steady w ~input in
  let oco = Measure.ocolos_steady w ~input in
  let show name (c : Counters.t) =
    let td = Counters.topdown c in
    Fmt.pr
      "%-9s IPC %.2f | L1i MPKI %5.2f | iTLB MPKI %5.2f | taken/K %5.1f | misp/K %5.2f | TD fe %.0f%% bs %.0f%% be %.0f%% ret %.0f%%@."
      name (Counters.ipc c) (Counters.l1i_mpki c) (Counters.itlb_mpki c)
      (Counters.taken_branches_pki c) (Counters.mispredicts_pki c)
      (100.0 *. td.Counters.frontend) (100.0 *. td.Counters.bad_speculation)
      (100.0 *. td.Counters.backend) (100.0 *. td.Counters.retiring)
  in
  Fmt.pr "@.";
  show "original" orig.Measure.counters;
  show "OCOLOS" oco.Measure.post.Measure.counters;
  Fmt.pr "@.speedup: %.2fx@." (oco.Measure.post.Measure.tps /. orig.Measure.tps);

  (* perf report (Section VI-C): under the original binary the generated
     SQL parser dominates L1i misses, exactly like MYSQLparse in the paper;
     after optimization it falls off the radar. *)
  let report_misses binary =
    let proc = Workload.launch w ~binary ~input in
    Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
    let session = Ocolos_profiler.Perf_report.start ~period:3 proc in
    Ocolos_proc.Proc.run ~cycle_limit:800_000.0 proc;
    Ocolos_profiler.Perf_report.stop session
  in
  Fmt.pr "@.perf report — L1i misses under the ORIGINAL binary:@.";
  let r_orig = report_misses w.Workload.binary in
  Fmt.pr "%a" (Ocolos_profiler.Perf_report.pp_top ~limit:6) (r_orig, w.Workload.binary);
  let profile = Measure.collect_profile w ~input in
  let bolted = Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary (Measure.bolt_binary w profile) in
  Fmt.pr "@.perf report — L1i misses under the BOLTED binary:@.";
  let r_opt = report_misses bolted in
  Fmt.pr "%a" (Ocolos_profiler.Perf_report.pp_top ~limit:6) (r_opt, bolted);
  (match w.Workload.gen.Ocolos_workloads.Gen.parser_fid with
  | Some pf ->
    let share r b =
      let rows = Ocolos_profiler.Perf_report.by_function r b in
      match
        List.find_opt (fun x -> x.Ocolos_profiler.Perf_report.fr_fid = pf) rows
      with
      | Some x -> 100.0 *. x.Ocolos_profiler.Perf_report.fr_share
      | None -> 0.0
    in
    Fmt.pr "@.parse_query share of L1i misses: %.1f%% (original) -> %.1f%% (BOLTed)@."
      (share r_orig w.Workload.binary) (share r_opt bolted)
  | None -> ())
