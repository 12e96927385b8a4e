(* Fig. 6: speedup vs. profiling duration (MySQL read_only), for OCOLOS and
   for offline BOLT given the same amount of profiling data. Profiling for
   ~1 second already captures most of the benefit; below ~0.1 s profile
   quality collapses. *)

open Ocolos_workloads
open Ocolos_util
module Measure = Ocolos_sim.Measure

(* The simulated clock is ~1:2000 versus the paper's profiling rates, so the
   quality knee appears at millisecond-scale simulated durations. *)
let durations = [ 0.002; 0.004; 0.008; 0.02; 0.05; 0.1; 0.5; 2.0 ]

let run () =
  Table.section "Fig. 6 — speedup vs profiling duration (MySQL read_only)";
  let w = Lazy.force Common.mysql in
  let input = Workload.find_input w "read_only" in
  let orig = Common.steady_orig w input in
  let rows =
    List.map
      (fun d ->
        Common.progress "fig6: %.2fs profile" d;
        (* Offline BOLT with a profile of duration d. *)
        let profile = Measure.collect_profile ~seconds:d w ~input in
        let bolted = Measure.bolt_binary w profile in
        let bolt_s =
          Measure.steady
            ~binary:(Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary bolted)
            ~warmup:Common.warmup
            ~measure:Common.measure_s w ~input
        in
        (* OCOLOS profiling the live process for d. *)
        let oco = Measure.ocolos_steady ~warmup:Common.warmup ~profile_s:d
            ~measure:Common.measure_s w ~input
        in
        [| Printf.sprintf "%.3f" d;
           Table.fmt_speedup (oco.Measure.post.Measure.tps /. orig.Measure.tps);
           Table.fmt_speedup (bolt_s.Measure.tps /. orig.Measure.tps);
           Table.fmt_int profile.Ocolos_profiler.Profile.total_records |])
      durations
  in
  Table.print
    ~headers:[| "profile duration (s)"; "OCOLOS speedup"; "BOLT speedup"; "LBR records" |]
    rows
