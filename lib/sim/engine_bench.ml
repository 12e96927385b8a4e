(* Microbenchmark comparing the two execution engines.

   Each measurement launches a fresh process (same binary, input and seed),
   runs exactly [max_instrs] instructions under one engine, and reports
   instructions per wall-clock second. Repeats keep the best (minimum-wall)
   run, the standard way to strip scheduler noise from a throughput
   microbenchmark. Since both engines are deterministic over the same
   workload and seed, the final uarch counters must match bit for bit;
   [compare_engines] checks that alongside the speedup. *)

open Ocolos_workloads

type engine_sample = {
  wall_s : float; (* best-of-repeats wall time *)
  instructions : int; (* instructions retired in the measured run *)
  ips : float; (* instructions / wall_s *)
  minor_words_per_instr : float; (* minor-heap words / instruction retired *)
}

type comparison = {
  workload : string;
  input : string;
  instructions : int;
  reference : engine_sample;
  blocks : engine_sample;
  speedup : float; (* blocks.ips / reference.ips *)
  counters_equal : bool; (* final Counters.t bit-identical across both engines *)
}

let default_max_instrs = 8_000_000
let default_repeats = 4

(* One measured run: fresh process, [max_instrs] instructions, no cycle
   horizon (the instruction budget is the stopping condition). *)
let run_once ~engine ~max_instrs w ~input =
  let proc = Workload.launch w ~input in
  let t0 = Unix.gettimeofday () in
  let words0 = Gc.minor_words () in
  Ocolos_proc.Proc.run proc ~engine ~max_instrs ~cycle_limit:infinity;
  let words = Gc.minor_words () -. words0 in
  let wall = Unix.gettimeofday () -. t0 in
  (wall, words, proc.Ocolos_proc.Proc.instret, Ocolos_proc.Proc.total_counters proc)

(* Repeats are interleaved round-robin across the engines (ref, blocks,
   ref, blocks, ...) rather than measured engine-by-engine: ambient machine
   load then perturbs every engine's repeat set alike, and best-of still picks each engine's quietest window — the reported ratios
   survive a noisy host that back-to-back per-engine windows would not. *)
let measure_interleaved ~engines ~max_instrs ~repeats w ~input =
  let n = Array.length engines in
  let best_wall = Array.make n infinity in
  let minor_words = Array.make n 0.0 in
  let instructions = Array.make n 0 in
  let counters = Array.make n Ocolos_uarch.Counters.zero in
  for _ = 1 to max 1 repeats do
    Array.iteri
      (fun i engine ->
        let wall, words, instret, c = run_once ~engine ~max_instrs w ~input in
        if wall < best_wall.(i) then best_wall.(i) <- wall;
        minor_words.(i) <- words;
        instructions.(i) <- instret;
        counters.(i) <- c)
      engines
  done;
  Array.init n (fun i ->
      let wall_s = Float.max best_wall.(i) 1e-9 in
      let instrs = float_of_int (max 1 instructions.(i)) in
      ( { wall_s;
          instructions = instructions.(i);
          ips = float_of_int instructions.(i) /. wall_s;
          minor_words_per_instr = minor_words.(i) /. instrs },
        counters.(i) ))

let compare_engines ?(repeats = default_repeats) ?(max_instrs = default_max_instrs) w
    ~input =
  let results =
    measure_interleaved ~engines:[| `Reference; `Blocks |] ~max_instrs ~repeats w ~input
  in
  let reference, ref_counters = results.(0) in
  let blocks, blk_counters = results.(1) in
  { workload = w.Workload.name;
    input = input.Input.name;
    instructions = blocks.instructions;
    reference;
    blocks;
    speedup = blocks.ips /. reference.ips;
    counters_equal = ref_counters = blk_counters }

let sample_to_json s =
  Ocolos_obs.Json.Obj
    [ ("wall_s", Ocolos_obs.Json.Float s.wall_s);
      ("instructions", Ocolos_obs.Json.Int s.instructions);
      ("ips", Ocolos_obs.Json.Float s.ips);
      ("minor_words_per_instr", Ocolos_obs.Json.Float s.minor_words_per_instr) ]

let to_json c =
  Ocolos_obs.Json.Obj
    [ ("bench", Ocolos_obs.Json.String "engine_throughput");
      ("workload", Ocolos_obs.Json.String c.workload);
      ("input", Ocolos_obs.Json.String c.input);
      ("instructions", Ocolos_obs.Json.Int c.instructions);
      ("reference", sample_to_json c.reference);
      ("blocks", sample_to_json c.blocks);
      ("speedup", Ocolos_obs.Json.Float c.speedup);
      ("counters_equal", Ocolos_obs.Json.Bool c.counters_equal) ]
