(* BAM example: transparently accelerate a parallel "Clang build".

     dune exec examples/bam_build.exe

   A make -j8 build of 300 source files. BAM intercepts each exec of the
   compiler binary (the LD_PRELOAD analog): the first 4 runs are profiled,
   BOLT runs once in the background, and every later exec launches the
   BOLTed compiler — no Makefile or compiler changes. *)

open Ocolos_workloads
module Bam = Ocolos_core.Bam
module Clock = Ocolos_sim.Clock

let n_files = 300
let jobs = 8

let compile_seconds w ~binary ~file =
  let input = List.nth w.Workload.inputs file in
  let proc = Workload.launch ~binary w ~input in
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:200_000_000 proc;
  Clock.cycles_to_seconds (Ocolos_proc.Proc.max_cycles proc)

let () =
  let w = Apps.clang_like ~n_files ~tx_per_file:250 () in
  Fmt.pr "compiler binary: %a@." Ocolos_binary.Binary.pp_summary w.Workload.binary;

  (* Measure one real original compile, then profile a few files and build
     the BOLTed compiler exactly as BAM would. *)
  let t_orig_base = compile_seconds w ~binary:w.Workload.binary ~file:0 in
  Fmt.pr "one compiler execution: %.2f s (original)@." t_orig_base;
  (* BAM samples at a lower frequency than server-mode profiling: compiler
     runs are short, and the build must not drown in perf2bolt work. *)
  let bam_perf = { Ocolos_profiler.Perf.sample_period = 6_000; pmi_overhead = 60.0 } in
  let profiles =
    List.init 4 (fun file ->
        let input = List.nth w.Workload.inputs file in
        let proc = Workload.launch w ~input in
        let session = Ocolos_profiler.Perf.start ~cfg:bam_perf proc in
        Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:200_000_000 proc;
        Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary
          (Ocolos_profiler.Perf.stop session))
  in
  let merged = Ocolos_profiler.Profile.merge profiles in
  let bolted = Ocolos_bolt.Bolt.run ~binary:w.Workload.binary ~profile:merged () in
  let t_opt_base =
    compile_seconds w ~binary:(Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary bolted) ~file:5
  in
  Fmt.pr "one compiler execution: %.2f s (BOLTed) — %.2fx@." t_opt_base
    (t_orig_base /. t_opt_base);
  let cost = Ocolos_core.Cost.default in
  let bolt_seconds =
    Ocolos_core.Cost.perf2bolt_seconds cost ~records:merged.Ocolos_profiler.Profile.total_records
    +. Ocolos_core.Cost.bolt_seconds cost ~work_instrs:bolted.Ocolos_bolt.Bolt.work_instrs
  in

  (* Schedule the whole build under BAM. *)
  let jitter i = 1.0 +. (0.06 *. sin (float_of_int ((17 * i) + 3))) in
  let out =
    Bam.simulate_build
      ~config:{ Bam.jobs; profiles_wanted = 4; perf_slowdown = 1.06 }
      ~n_files
      ~t_orig:(fun f -> t_orig_base *. jitter f)
      ~t_opt:(fun f -> t_opt_base *. jitter f)
      ~bolt_seconds ()
  in
  let baseline =
    Bam.simulate_build
      ~config:{ Bam.jobs; profiles_wanted = 0; perf_slowdown = 1.0 }
      ~n_files
      ~t_orig:(fun f -> t_orig_base *. jitter f)
      ~t_opt:(fun f -> t_orig_base *. jitter f)
      ~bolt_seconds:0.0 ()
  in
  Fmt.pr "@.make -j%d, %d files:@." jobs n_files;
  Fmt.pr "  original build:        %7.1f s@." baseline.Bam.total_seconds;
  Fmt.pr "  BAM build:             %7.1f s (%.2fx)@." out.Bam.total_seconds
    (baseline.Bam.total_seconds /. out.Bam.total_seconds);
  Fmt.pr "  profiled executions:   %d@." out.Bam.profiled_runs;
  Fmt.pr "  original executions:   %d (waiting for BOLT)@." out.Bam.original_runs;
  Fmt.pr "  optimized executions:  %d@." out.Bam.optimized_runs;
  (match out.Bam.bolt_ready_at with
  | Some t -> Fmt.pr "  BOLTed binary ready at %.1f s into the build@." t
  | None -> ())
