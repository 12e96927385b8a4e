(* Execution-engine microbenchmark: reference interpreter vs decoded-block
   engine.

   Two microbenchmarks run by default — `branchy` (tiny blocks, dispatch
   bound: the floor for the block engine's lead) and `straightline` (long
   blocks: the case block decoding exists for) — plus, when
   OCOLOS_BENCH_APP is set, one of the paper's app workloads. Emits
   BENCH_engines.json with instructions per wall second and minor-heap
   words per retired instruction for both engines, and exits non-zero if
   their final counters diverge or if the block engine is slower than the
   reference — the regressions CI's bench-smoke job keys on.

   Meaningful numbers need the release profile (`dune exec --profile
   release ...`): the dev profile compiles with -opaque, which turns every
   cross-module call into a generic caml_apply and disables the inlining
   the hot paths are written for. *)

open Ocolos_workloads
module Engine_bench = Ocolos_sim.Engine_bench

let output = "BENCH_engines.json"

let bench w =
  let input = List.hd w.Workload.inputs in
  Common.progress "engines: %s/%s, %d instrs x %d repeats per engine"
    w.Workload.name input.Input.name Engine_bench.default_max_instrs
    Engine_bench.default_repeats;
  let c = Engine_bench.compare_engines w ~input in
  Printf.printf "engine throughput (%s/%s, %d instructions):\n" c.Engine_bench.workload
    c.Engine_bench.input c.Engine_bench.instructions;
  Printf.printf "  reference  %8.0f kinstr/s  (%.3f s)  %.3f minor words/instr\n"
    (c.Engine_bench.reference.Engine_bench.ips /. 1e3)
    c.Engine_bench.reference.Engine_bench.wall_s
    c.Engine_bench.reference.Engine_bench.minor_words_per_instr;
  Printf.printf "  blocks     %8.0f kinstr/s  (%.3f s)  %.3f minor words/instr  %.2fx\n"
    (c.Engine_bench.blocks.Engine_bench.ips /. 1e3)
    c.Engine_bench.blocks.Engine_bench.wall_s
    c.Engine_bench.blocks.Engine_bench.minor_words_per_instr c.Engine_bench.speedup;
  Printf.printf "  counters_equal=%b\n%!" c.Engine_bench.counters_equal;
  c

let run () =
  let workloads =
    [ Lazy.force Common.branchy; Lazy.force Common.straightline ]
    @
    match Sys.getenv_opt "OCOLOS_BENCH_APP" with
    | Some "verilator" -> [ Lazy.force Common.verilator ]
    | Some "memcached" -> [ Lazy.force Common.memcached ]
    | Some "mongodb" -> [ Lazy.force Common.mongodb ]
    | Some "mysql" -> [ Lazy.force Common.mysql ]
    | _ -> []
  in
  let results = List.map bench workloads in
  let oc = open_out output in
  output_string oc
    (Ocolos_obs.Json.to_string (Ocolos_obs.Json.List (List.map Engine_bench.to_json results)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" output;
  List.iter
    (fun c ->
      if not c.Engine_bench.counters_equal then begin
        Printf.eprintf "FAIL: engines disagree on final counters (%s)\n"
          c.Engine_bench.workload;
        exit 2
      end;
      if c.Engine_bench.speedup < 1.0 then begin
        Printf.eprintf "FAIL: block engine slower than reference on %s (%.2fx)\n"
          c.Engine_bench.workload c.Engine_bench.speedup;
        exit 1
      end)
    results
