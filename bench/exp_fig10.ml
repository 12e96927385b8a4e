(* Fig. 10: BAM on a from-scratch Clang build.

   A parallel (make -j) build of N source files. BAM profiles the first K
   compiler executions, runs BOLT in the background, and switches later
   execs to the BOLTed compiler. We sweep K and report: the original build
   time, the whole-build-profile BOLT lower bound, the "ideal BAM" (the
   optimized binary available from the start, showing the marginal utility
   of extra profiles), and real BAM (which pays profiling overhead and
   waits for BOLT). *)

open Ocolos_workloads
open Ocolos_util
module Bam = Ocolos_core.Bam
module Clock = Ocolos_sim.Clock

let n_files = 400
let jobs = 8
let ks = [ 1; 2; 3; 5; 8; 12; 20; 32 ]

(* Deterministic per-file duration jitter (+/-8%): source files differ. *)
let jitter i = 1.0 +. (0.08 *. sin (float_of_int ((i * 37) + 11)))

let run_file (w : Workload.t) ~binary ~file =
  let input = List.nth w.Workload.inputs file in
  let proc = Workload.launch ~binary w ~input in
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:200_000_000 proc;
  Clock.cycles_to_seconds (Ocolos_proc.Proc.max_cycles proc)

(* BAM profiles at a lower frequency than the server-mode experiments: the
   compiler runs are short and the build must not drown in perf2bolt work. *)
let bam_perf = { Ocolos_profiler.Perf.sample_period = 6_000; pmi_overhead = 60.0 }

let profile_file (w : Workload.t) ~file =
  let input = List.nth w.Workload.inputs file in
  let proc = Workload.launch w ~input in
  let session = Ocolos_profiler.Perf.start ~cfg:bam_perf proc in
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:200_000_000 proc;
  Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary
    (Ocolos_profiler.Perf.stop session)

let run () =
  Table.section "Fig. 10 — BAM: Clang build time vs number of profiled executions";
  let w = Apps.clang_like ~n_files ~tx_per_file:300 () in
  let base_file_s = run_file w ~binary:w.Workload.binary ~file:0 in
  let t_orig file = base_file_s *. jitter file in
  Common.progress "fig10: per-file compile time %.2f s (original)" base_file_s;
  (* Per-prefix profiles (memoized cumulatively). *)
  let profiles = Array.init (List.fold_left max 0 ks) (fun i -> lazy (profile_file w ~file:i)) in
  let cost = Ocolos_core.Cost.default in
  let opt_time_for k =
    let ps = List.init k (fun i -> Lazy.force profiles.(i)) in
    let merged = Ocolos_profiler.Profile.merge ps in
    let r = Ocolos_bolt.Bolt.run ~binary:w.Workload.binary ~profile:merged () in
    (* Held-out file: the same measurement file for every K, so the sweep
       reflects profile quality rather than per-file variance. *)
    let bolted = Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary r in
    let opt_file_s = run_file w ~binary:bolted ~file:50 in
    let bolt_seconds =
      Ocolos_core.Cost.perf2bolt_seconds cost
        ~records:merged.Ocolos_profiler.Profile.total_records
      +. Ocolos_core.Cost.bolt_seconds cost ~work_instrs:r.Ocolos_bolt.Bolt.work_instrs
    in
    (opt_file_s /. jitter 50, bolt_seconds)
  in
  let schedule ~k ~t_opt_base ~bolt_seconds =
    Bam.simulate_build
      ~config:{ Bam.jobs; profiles_wanted = k; perf_slowdown = 1.06 }
      ~n_files ~t_orig
      ~t_opt:(fun f -> t_opt_base *. jitter f)
      ~bolt_seconds ()
  in
  let original = schedule ~k:0 ~t_opt_base:base_file_s ~bolt_seconds:0.0 in
  Common.progress "fig10: original build %.1f s" original.Bam.total_seconds;
  (* Lower bound: profile aggregated from many executions, binary available
     from the start of a fresh build. *)
  let best_opt, _ = opt_time_for (List.fold_left max 0 ks) in
  let lower_bound =
    let t = schedule ~k:0 ~t_opt_base:best_opt ~bolt_seconds:0.0 in
    (* every run uses the optimized binary *)
    Array.fold_left ( +. ) 0.0
      (Array.init n_files (fun f -> best_opt *. jitter f))
    /. float_of_int jobs
    |> fun ideal -> Float.max ideal (t.Bam.total_seconds *. best_opt /. base_file_s)
  in
  let rows =
    List.map
      (fun k ->
        Common.progress "fig10: K=%d" k;
        let t_opt_base, bolt_seconds = opt_time_for k in
        (* Ideal BAM: no overheads, optimized from the start. *)
        let ideal =
          Array.fold_left ( +. ) 0.0 (Array.init n_files (fun f -> t_opt_base *. jitter f))
          /. float_of_int jobs
        in
        let bam = schedule ~k ~t_opt_base ~bolt_seconds in
        [| string_of_int k;
           Table.fmt_f ~digits:1 ideal;
           Table.fmt_f ~digits:1 bam.Bam.total_seconds;
           Table.fmt_speedup (original.Bam.total_seconds /. bam.Bam.total_seconds);
           string_of_int bam.Bam.optimized_runs |])
      ks
  in
  Table.print
    ~headers:
      [| "profiled execs (K)"; "ideal BAM build (s)"; "BAM build (s)"; "BAM speedup";
         "optimized runs" |]
    rows;
  Printf.printf "\noriginal build: %.1f s [red dashed]; whole-build-profile BOLT bound: %.1f s [orange dashed]\n"
    original.Bam.total_seconds lower_bound;
  Printf.printf
    "(paper: 1.09x at K=1 rising to 1.14x near K=5, then declining as profiling delays the switch)\n"
