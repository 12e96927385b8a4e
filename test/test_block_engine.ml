(* Tests for the decoded basic-block execution engine (Block_engine).

   The load-bearing property is engine equivalence: over random workloads
   and seeds — including runs that profile, BOLT and replace code mid-run,
   with injected faults rolling a replacement back — the block engine must
   be observably indistinguishable from the reference interpreter, down to
   bit-identical uarch counters, the exact taken-branch trace, and
   byte-identical Prometheus / Chrome-trace exports.

   The unit tests below that pin the cache mechanics themselves:
   decode/dispatch/invalidation accounting, precise invalidation on direct
   code-map writes, and the register-operand validation at
   [Addr_space.write_code] that lets the engine run the register file
   unchecked. *)

open Ocolos_isa
open Ocolos_workloads
module O = Ocolos_core.Ocolos
module Txn = Ocolos_core.Txn
module F = Ocolos_util.Fault
module Proc = Ocolos_proc.Proc
module Addr_space = Ocolos_proc.Addr_space
module Thread = Ocolos_proc.Thread
module Trace = Ocolos_obs.Trace
module Metrics = Ocolos_obs.Metrics
module Chrome = Ocolos_obs.Chrome

let deep = Sys.getenv_opt "OCOLOS_DEEP_TESTS" <> None

(* ---- engine differential: full OCOLOS scenario, both engines ---- *)

let record_branches (proc : Proc.t) =
  let buf = ref [] in
  proc.Proc.hooks.Proc.on_taken_branch <-
    Some
      (fun ~tid ~from_addr ~to_addr ~kind ~cycles ->
        ignore cycles;
        buf := (tid, from_addr, to_addr, kind) :: !buf);
  buf

(* A small randomized workload: branchy bodies, calls, loops, some indirect
   dispatch — every instruction class the engine decodes. *)
let random_workload seed =
  let cfg =
    { Gen.default with
      Gen.seed;
      n_tx_types = 3;
      funcs_per_type = 6;
      shared_funcs = 30;
      cold_funcs = 40;
      parser_blocks = 24;
      blocks_per_func = (3, 6);
      body_instrs = (3, 8);
      calls_per_func = (1, 2) }
  in
  let inputs =
    [ Input.make ~name:"mix" ~mix:(Input.pure ~n_types:3 (seed mod 3))
        ~bias_seed:(100 + seed) () ]
  in
  Workload.build ~name:(Printf.sprintf "rand%d" seed) ~inputs ~nthreads:2
    (Gen.generate cfg)

(* One full scenario under [engine]: warm up, profile, BOLT, one replacement
   attempt rolled back by an injected fault, one committed replacement, then
   more execution — the taken-branch trace recorded throughout. Returns
   every observable the engines must agree on. *)
let scenario ~engine w =
  let tr = Trace.create () in
  let reg = Metrics.create () in
  Trace.install tr;
  Metrics.install reg;
  Fun.protect
    ~finally:(fun () ->
      Trace.uninstall ();
      Metrics.uninstall ())
    (fun () ->
      let input = List.hd w.Workload.inputs in
      let proc = Workload.launch w ~input in
      let fault = F.create ~seed:3 () in
      let oc = O.attach ~config:{ O.default_config with O.fault = Some fault } proc in
      let trace = record_branches proc in
      let run n = Proc.run ~engine ~cycle_limit:infinity ~max_instrs:n proc in
      run 40_000;
      O.start_profiling oc;
      run 60_000;
      let profile, _ = O.stop_profiling oc in
      let result, _ = O.run_bolt oc profile in
      (* Attempt 1: armed fault mid-injection, exact rollback. *)
      F.arm fault "inject_code" (F.Nth 5);
      (match Txn.replace_code oc result with
      | Txn.Rolled_back rb ->
        Alcotest.(check string) "attempt faulted where armed" "inject_code" rb.Txn.rb_point
      | Txn.Committed _ -> Alcotest.fail "armed attempt committed"
      | Txn.Diverged _ -> Alcotest.fail "armed attempt diverged");
      F.disarm fault "inject_code";
      run 30_000;
      (* Attempt 2: clean commit, execution continues in the new layout. *)
      (match Txn.replace_code oc result with
      | Txn.Committed _ -> ()
      | Txn.Rolled_back _ -> Alcotest.fail "clean attempt rolled back"
      | Txn.Diverged _ -> Alcotest.fail "clean attempt diverged");
      run 80_000;
      ( proc.Proc.instret,
        Proc.total_counters proc,
        List.rev !trace,
        Workload.checksums proc,
        Chrome.to_string tr,
        Metrics.to_prometheus reg ))

let check_scenarios_equal ctx w =
  let i_r, c_r, t_r, s_r, chrome_r, prom_r = scenario ~engine:`Reference w in
  let check name (i_b, c_b, t_b, s_b, chrome_b, prom_b) =
    let ctx = ctx ^ "/" ^ name in
    Alcotest.(check int) (ctx ^ ": instret") i_r i_b;
    Alcotest.(check bool) (ctx ^ ": trace nonempty") true (t_r <> []);
    Alcotest.(check int) (ctx ^ ": trace length") (List.length t_r) (List.length t_b);
    Alcotest.(check bool) (ctx ^ ": taken-branch traces identical") true (t_r = t_b);
    Alcotest.(check (list int)) (ctx ^ ": checksums") s_r s_b;
    Alcotest.(check bool) (ctx ^ ": counters bit-identical") true (c_r = c_b);
    Alcotest.(check string) (ctx ^ ": chrome trace byte-identical") chrome_r chrome_b;
    Alcotest.(check string) (ctx ^ ": prometheus dump byte-identical") prom_r prom_b
  in
  check "blocks" (scenario ~engine:`Blocks w)

let test_differential_tiny () = check_scenarios_equal "tiny" (Apps.tiny ~tx_limit:None ())

let test_differential_random_seeds () =
  let seeds = if deep then List.init 40 (fun i -> i + 2) else [ 2; 3; 5 ] in
  List.iter (fun s -> check_scenarios_equal (Printf.sprintf "seed %d" s) (random_workload s))
    seeds

(* ---- cache mechanics ---- *)

(* Emit and launch a one-function program from raw blocks (same helper shape
   as test_proc). *)
let launch_blocks ?(nthreads = 1) blocks =
  let main = { Ir.fid = 0; fname = "main"; blocks } in
  let p =
    { Ir.funcs = [| main |]; vtables = [||]; entry_fid = 0; globals_words = 8; global_init = [] }
  in
  Ir.validate p;
  let e = Ocolos_binary.Emit.emit_default ~name:"t" p in
  Proc.load ~nthreads e.Ocolos_binary.Emit.binary

let counter_loop =
  [| { Ir.bid = 0;
       body =
         [ Ir.Plain (Instr.Movi (1, 5));
           Ir.Plain (Instr.Alui (Instr.Add, 2, 2, 1)) ];
       term = Ir.Tjump 0 } |]

let test_stats_and_validate () =
  let proc = launch_blocks counter_loop in
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:1_000 proc;
  (match Proc.code_cache_stats proc with
  | None -> Alcotest.fail "no block cache after a `Blocks run"
  | Some s ->
    Alcotest.(check bool) "decoded at least one block" true (s.Ocolos_proc.Block_engine.decodes > 0);
    Alcotest.(check bool) "dispatches >= decodes" true
      (s.Ocolos_proc.Block_engine.dispatches >= s.Ocolos_proc.Block_engine.decodes);
    Alcotest.(check bool) "blocks resident" true (s.Ocolos_proc.Block_engine.resident > 0);
    Alcotest.(check int) "no invalidations yet" 0 s.Ocolos_proc.Block_engine.invalidations);
  Alcotest.(check bool) "cache coherent with code map" true (Proc.validate_code_cache proc)

let test_code_write_invalidates () =
  let proc = launch_blocks counter_loop in
  let entry = proc.Proc.threads.(0).Thread.pc in
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:100 proc;
  Alcotest.(check int) "old constant live" 5 proc.Proc.threads.(0).Thread.regs.(1);
  (* Patch the loop head in place; the cached decoded block must drop. *)
  Addr_space.write_code proc.Proc.mem entry (Instr.Movi (1, 7));
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:100 proc;
  Alcotest.(check int) "patched constant observed" 7 proc.Proc.threads.(0).Thread.regs.(1);
  (match Proc.code_cache_stats proc with
  | None -> Alcotest.fail "no block cache"
  | Some s ->
    Alcotest.(check bool) "write invalidated cached blocks" true
      (s.Ocolos_proc.Block_engine.invalidations > 0));
  Alcotest.(check bool) "cache coherent after patch" true (Proc.validate_code_cache proc)

let test_engines_interleave () =
  (* Switching engines mid-run stays coherent: same architectural state as
     either engine alone. *)
  let run engines =
    let proc = launch_blocks counter_loop in
    List.iter (fun e -> Proc.run ~engine:e ~cycle_limit:infinity ~max_instrs:500 proc) engines;
    (proc.Proc.instret, proc.Proc.threads.(0).Thread.regs.(2), Proc.total_counters proc)
  in
  let mixed = run [ `Blocks; `Reference; `Reference; `Blocks; `Blocks; `Reference ] in
  let blocks_only = run [ `Blocks; `Blocks; `Blocks; `Blocks; `Blocks; `Blocks ] in
  let reference_only =
    run [ `Reference; `Reference; `Reference; `Reference; `Reference; `Reference ]
  in
  Alcotest.(check bool) "mixed = blocks-only" true (mixed = blocks_only);
  Alcotest.(check bool) "mixed = reference-only" true (mixed = reference_only)

(* ---- span-aware invalidation (a write can overlay several blocks) ---- *)

(* 70 straight-line 4-byte instructions and a halt: [Predecode.decode] splits
   the run at [default_max_len] = 64 entries, so after one execution two
   cached blocks cover contiguous bytes. *)
let straight_70 =
  [| { Ir.bid = 0;
       body = List.init 70 (fun _ -> Ir.Plain (Instr.Alui (Instr.Add, 1, 1, 1)));
       term = Ir.Thalt } |]

let blocks_stats proc =
  match Proc.code_cache_stats proc with
  | Some s -> s
  | None -> Alcotest.fail "no block cache"

let test_write_spanning_blocks_invalidates_both () =
  let proc = launch_blocks straight_70 in
  let entry = proc.Proc.threads.(0).Thread.pc in
  Proc.run ~engine:`Blocks ~cycle_limit:infinity proc;
  Alcotest.(check int) "two blocks cached" 2 (blocks_stats proc).Ocolos_proc.Block_engine.resident;
  (* Overlay the tail of block 1 with a wider encoding: a 5-byte [Movi] over
     the 4-byte instruction at entry 63 clobbers the first byte of entry 64
     — the head of block 2. Both blocks must drop, not just the one keyed
     at the write address. *)
  let addr63 = entry + (63 * 4) in
  Addr_space.write_code proc.Proc.mem addr63 (Instr.Movi (1, 42));
  let s = blocks_stats proc in
  Alcotest.(check int) "both blocks invalidated" 2 s.Ocolos_proc.Block_engine.invalidations;
  Alcotest.(check int) "no stale block resident" 0 s.Ocolos_proc.Block_engine.resident;
  Alcotest.(check bool) "cache valid after overlay write" true (Proc.validate_code_cache proc)

let test_write_mid_instruction_invalidates () =
  let proc = launch_blocks straight_70 in
  let entry = proc.Proc.threads.(0).Thread.pc in
  Proc.run ~engine:`Blocks ~cycle_limit:infinity proc;
  (* A write landing *inside* an instruction of a cached block — not at any
     decoded entry address — must still invalidate the covering block. *)
  Addr_space.write_code proc.Proc.mem (entry + 1) Instr.Nop;
  let s = blocks_stats proc in
  Alcotest.(check int) "covering block invalidated" 1 s.Ocolos_proc.Block_engine.invalidations;
  Alcotest.(check int) "one block left" 1 s.Ocolos_proc.Block_engine.resident;
  Alcotest.(check bool) "cache valid after mid-instruction write" true
    (Proc.validate_code_cache proc)

(* ---- resident accounting under overlapping blocks ---- *)

(* Decode two blocks that share bytes (the second starts at the second
   instruction of the first), then kill both with one write to a shared
   byte. The kill visits the shared bytes once per block, so any accounting
   that isn't idempotent per block drops the overlap twice and [resident]
   drifts from the true cache population. *)
let test_resident_accounting_overlapping_blocks () =
  let proc = launch_blocks counter_loop in
  let entry = proc.Proc.threads.(0).Thread.pc in
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:50 proc;
  (* Force a mid-block entry: the Movi at [entry] is 5 bytes, so the block
     starting at the Alui below it overlaps the loop block. *)
  proc.Proc.threads.(0).Thread.pc <- entry + 5;
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:2 proc;
  Alcotest.(check int) "overlapping blocks both cached" 2
    (blocks_stats proc).Ocolos_proc.Block_engine.resident;
  (* One write to a byte both blocks cover kills both, each exactly once. *)
  Addr_space.write_code proc.Proc.mem (entry + 5) (Instr.Alui (Instr.Add, 2, 2, 1));
  let s = blocks_stats proc in
  Alcotest.(check int) "each block dropped exactly once" 2
    s.Ocolos_proc.Block_engine.invalidations;
  Alcotest.(check int) "resident matches live entries" 0 s.Ocolos_proc.Block_engine.resident;
  Alcotest.(check bool) "cache valid after double-cover kill" true
    (Proc.validate_code_cache proc)

(* ---- register-operand validation at the code-map boundary ---- *)

let test_write_code_rejects_bad_regs () =
  let proc = launch_blocks counter_loop in
  let mem = proc.Proc.mem in
  let addr = Addr_space.reserve_code mem 64 in
  List.iter
    (fun instr ->
      Alcotest.(check bool)
        ("rejected: " ^ Instr.to_string instr)
        true
        (match Addr_space.write_code mem addr instr with
        | exception Invalid_argument _ -> true
        | () -> false))
    [ Instr.Alu (Instr.Add, Instr.num_regs, 0, 0);
      Instr.Alui (Instr.Mul, 0, -1, 3);
      Instr.Movi (99, 1);
      Instr.Load (0, Instr.num_regs, 0);
      Instr.Store (-2, 0, 8);
      Instr.Branch (Instr.Eq, 200, 0);
      Instr.JumpInd (-1);
      Instr.CallInd (Instr.num_regs + 4);
      Instr.FpCreate (1000, 0);
      Instr.VtLoad (-5, 0, 0);
      Instr.Rand (Instr.num_regs, 10) ];
  (* In-range operands still pass. *)
  Addr_space.write_code mem addr (Instr.Alu (Instr.Add, 0, Instr.num_regs - 1, 1));
  Alcotest.(check bool) "valid instruction written" true (Addr_space.read_code mem addr <> None);
  Alcotest.(check bool) "valid_regs agrees" true
    (Instr.valid_regs (Instr.Alu (Instr.Add, 0, Instr.num_regs - 1, 1)));
  Alcotest.(check bool) "valid_regs rejects" false (Instr.valid_regs (Instr.Movi (99, 1)))

let suite =
  [ Alcotest.test_case "differential: tiny app, fault + replacement" `Quick
      test_differential_tiny;
    Alcotest.test_case "differential: random workloads x seeds" `Slow
      test_differential_random_seeds;
    Alcotest.test_case "stats and validate" `Quick test_stats_and_validate;
    Alcotest.test_case "code write invalidates cached blocks" `Quick
      test_code_write_invalidates;
    Alcotest.test_case "engines interleave coherently" `Quick test_engines_interleave;
    Alcotest.test_case "write spanning two blocks invalidates both" `Quick
      test_write_spanning_blocks_invalidates_both;
    Alcotest.test_case "write inside an instruction invalidates its block" `Quick
      test_write_mid_instruction_invalidates;
    Alcotest.test_case "resident accounting under overlapping blocks" `Quick
      test_resident_accounting_overlapping_blocks;
    Alcotest.test_case "write_code rejects bad register operands" `Quick
      test_write_code_rejects_bad_regs ]
