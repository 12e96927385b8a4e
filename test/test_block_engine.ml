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
      (fun ~tid ~from_addr ~to_addr ~kind ->
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
  Trace.with_installed tr @@ fun () ->
  Metrics.with_installed reg (fun () ->
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

(* Unmapping an instruction (what OSR's retire and the residue reaper do)
   must drop the cached block holding it, as a write does: the coherence
   check [Txn] runs after every commit and rollback reads every cached
   block back against the code map. *)
let test_code_removal_invalidates () =
  let proc = launch_blocks counter_loop in
  let entry = proc.Proc.threads.(0).Thread.pc in
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:100 proc;
  Alcotest.(check bool) "cache coherent before" true (Proc.validate_code_cache proc);
  ignore (Addr_space.remove_run proc.Proc.mem ~each:ignore (entry, entry + 1) : int);
  (match Proc.code_cache_stats proc with
  | None -> Alcotest.fail "no block cache"
  | Some s ->
    Alcotest.(check bool) "removal invalidated the cached block" true
      (s.Ocolos_proc.Block_engine.invalidations > 0));
  Alcotest.(check bool) "cache coherent after removal" true (Proc.validate_code_cache proc)

(* The coherence check itself must bite: a write that reaches the code map
   behind the watcher's back (so no block is invalidated) leaves a stale
   cached block, and [validate] must report it, for a changed instruction
   and for an unmapped one. A rewrite with an equal but freshly built
   instruction stays coherent: the check compares structurally. *)
let test_validate_sees_stale_blocks () =
  let module Codemap = Ocolos_util.Codemap in
  let proc = launch_blocks counter_loop in
  let entry = proc.Proc.threads.(0).Thread.pc in
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:100 proc;
  let code = proc.Proc.mem.Addr_space.code in
  let original = Codemap.find code entry in
  Alcotest.(check bool) "coherent before" true (Proc.validate_code_cache proc);
  Codemap.replace code entry (Instr.Movi (1, 7));
  Alcotest.(check bool) "changed instruction seen" false (Proc.validate_code_cache proc);
  Codemap.replace code entry (Instr.Movi (1, Sys.opaque_identity 5));
  Alcotest.(check bool) "equal instruction coherent" true
    (original != Codemap.find code entry && Proc.validate_code_cache proc);
  Codemap.remove code entry;
  Alcotest.(check bool) "unmapped instruction seen" false (Proc.validate_code_cache proc);
  Codemap.replace code entry original;
  Alcotest.(check bool) "coherent once restored" true (Proc.validate_code_cache proc)

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

(* ---- rollback invalidation ---- *)

(* A rollback restores the code map's saved directory and must drop exactly
   the cached blocks a write of each restored slot would drop: the blocks
   re-decoded from the transaction's code that overlap a changed slot's
   span, and none of the blocks whose bytes it left alone. The spans here
   are an overwrite inside block B, a 7-byte encoding removed from the last
   slot of a page (its span reaches into the next page, where a block
   starts at a key inside the encoding), and fresh code the rollback
   unmaps. *)
let test_rollback_invalidates_restored_spans () =
  let proc = launch_blocks straight_70 in
  let mem = proc.Proc.mem in
  let th = proc.Proc.threads.(0) in
  let entry = th.Thread.pc in
  let run_from pc =
    th.Thread.pc <- pc;
    th.Thread.state <- Thread.Running;
    Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:200 proc
  in
  let cached () =
    List.sort Int.compare
      (List.filter_map
         (fun (what, a) -> if what = "block" then Some a else None)
         (Proc.engine_code_pointers proc))
  in
  let x = 0x80_0fff and y = 0x90_0000 in
  Addr_space.write_code mem (x - 4) (Instr.Alui (Instr.Add, 1, 1, 1));
  Addr_space.write_code mem x (Instr.FpCreate (1, entry));
  Addr_space.write_code mem (x + 3) Instr.Halt;
  Addr_space.write_code mem (x + 7) Instr.Halt;
  run_from entry;
  Addr_space.begin_journal mem;
  Addr_space.write_code mem (entry + (66 * 4)) (Instr.Alui (Instr.Add, 1, 1, 2));
  ignore (Addr_space.remove_run mem ~each:ignore (x, x + 1) : int);
  Addr_space.write_code mem y Instr.Nop;
  Addr_space.write_code mem (y + 1) Instr.Halt;
  (* Warm the cache on the transaction's code: B re-decoded over the
     overwrite, the halt keyed inside the removed encoding, the halt just
     past it, and the fresh code. *)
  List.iter run_from [ entry; x + 3; x + 7; y ];
  let b = entry + (64 * 4) in
  Alcotest.(check (list int)) "warm cache" [ entry; b; x + 3; x + 7; y ] (cached ());
  let before = (blocks_stats proc).Ocolos_proc.Block_engine.invalidations in
  Alcotest.(check int) "mutations undone" 4 (Addr_space.rollback_journal mem);
  let s = blocks_stats proc in
  Alcotest.(check int) "B, the in-encoding block and the fresh block dropped" 3
    (s.Ocolos_proc.Block_engine.invalidations - before);
  Alcotest.(check (list int)) "untouched blocks still resident" [ entry; x + 7 ] (cached ());
  Alcotest.(check bool) "cache coherent after rollback" true (Proc.validate_code_cache proc);
  Alcotest.(check bool) "encoding restored" true
    (Addr_space.read_code mem x = Some (Instr.FpCreate (1, entry)))

(* A run of writes or removals tells the watchers once, of the span it
   mutated, however it ends: at an [each] that raises part-way (a fault
   cut), or at an instruction with a bad register operand, which a run
   rejects as [write_code] does, before writing it. The blocks the mutated
   prefix overlaps drop, the others stay, and [code_bytes] stays exact. *)
let test_run_cut_short_invalidates () =
  let module Codemap = Ocolos_util.Codemap in
  let proc = launch_blocks straight_70 in
  let mem = proc.Proc.mem in
  let th = proc.Proc.threads.(0) in
  let entry = th.Thread.pc in
  let b = entry + (64 * 4) in
  let warm () =
    th.Thread.pc <- entry;
    th.Thread.state <- Thread.Running;
    Proc.run ~engine:`Blocks ~cycle_limit:infinity proc
  in
  let cut_at k =
    let n = ref 0 in
    fun () ->
      incr n;
      if !n = k then raise Exit
  in
  let src l =
    let m = Codemap.create () in
    List.iter (fun (a, i) -> Codemap.replace m a i) l;
    m
  in
  let invalidations () = (blocks_stats proc).Ocolos_proc.Block_engine.invalidations in
  let bytes0 = mem.Addr_space.code_bytes in
  let other = Instr.Alui (Instr.Add, 1, 1, 3) in
  warm ();
  (* A fault at the second instruction: the first is written, block A drops. *)
  let i0 = invalidations () in
  Alcotest.check_raises "write run cut at its second instruction" Exit (fun () ->
      ignore
        (Addr_space.write_run mem ~each:(cut_at 2)
           (src [ (entry, other); (entry + 4, other); (entry + 8, other) ])
           Addr_space.all_code
          : int));
  Alcotest.(check int) "block A dropped" 1 (invalidations () - i0);
  Alcotest.(check bool) "prefix written" true (Addr_space.read_code mem entry = Some other);
  Alcotest.(check bool) "cache coherent after a cut write run" true
    (Proc.validate_code_cache proc);
  (* A bad register operand second: the first is written, block B drops,
     the bad one is not written. *)
  warm ();
  let i0 = invalidations () in
  let bad = Instr.Movi (99, 1) in
  (match
     Addr_space.write_run mem ~each:ignore
       (src [ (b, other); (b + 4, bad) ])
       Addr_space.all_code
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a run wrote a bad register operand");
  Alcotest.(check int) "block B dropped" 1 (invalidations () - i0);
  Alcotest.(check bool) "bad instruction not written" true
    (Addr_space.read_code mem (b + 4) <> Some bad);
  Alcotest.(check bool) "cache coherent after a rejected write run" true
    (Proc.validate_code_cache proc);
  Alcotest.(check int) "code bytes after same-size rewrites" bytes0 mem.Addr_space.code_bytes;
  (* A removal run cut at its third instruction unmaps two, block B drops. *)
  warm ();
  let i0 = invalidations () in
  Alcotest.check_raises "remove run cut at its third instruction" Exit (fun () ->
      ignore (Addr_space.remove_run mem ~each:(cut_at 3) (b, b + 64) : int));
  Alcotest.(check int) "block B dropped by the removal" 1 (invalidations () - i0);
  Alcotest.(check bool) "two instructions unmapped" true
    (Addr_space.read_code mem b = None
    && Addr_space.read_code mem (b + 4) = None
    && Addr_space.read_code mem (b + 8) <> None);
  Alcotest.(check int) "code bytes after the removals" (bytes0 - 8) mem.Addr_space.code_bytes;
  Alcotest.(check bool) "cache coherent after a cut remove run" true
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

(* ---- dispatch chains ---- *)

(* Two cached blocks chained to each other: A (an add, then a branch that
   always falls into B) and B (a constant, then a jump back to A). After a
   warm run each dispatch follows A's and B's chains instead of the table.
   Patching B drops B alone; A stays cached with its chain still naming
   the dropped entry, and the next pass must run the patched constant. *)
let chained_pair =
  [| { Ir.bid = 0;
       body = [ Ir.Plain (Instr.Alui (Instr.Add, 2, 2, 1)) ];
       term = Ir.Tbranch (Instr.Ne, 3, 2, 1) };
     { Ir.bid = 1; body = [ Ir.Plain (Instr.Movi (1, 5)) ]; term = Ir.Tjump 0 };
     { Ir.bid = 2; body = []; term = Ir.Thalt } |]

let test_chained_block_invalidated () =
  let proc = launch_blocks chained_pair in
  let entry = proc.Proc.threads.(0).Thread.pc in
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:100 proc;
  let s0 = blocks_stats proc in
  Alcotest.(check int) "A and B cached" 2 s0.Ocolos_proc.Block_engine.resident;
  Alcotest.(check int) "decoded once each" 2 s0.Ocolos_proc.Block_engine.decodes;
  Alcotest.(check int) "old constant live" 5 proc.Proc.threads.(0).Thread.regs.(1);
  (* B starts right after A's add (4 bytes) and branch (4 bytes). *)
  Addr_space.write_code proc.Proc.mem (entry + 8) (Instr.Movi (1, 7));
  let s1 = blocks_stats proc in
  Alcotest.(check int) "only B dropped" 1 s1.Ocolos_proc.Block_engine.invalidations;
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:100 proc;
  Alcotest.(check int) "patched constant observed" 7 proc.Proc.threads.(0).Thread.regs.(1);
  Alcotest.(check int) "A and the new B cached" 2 (blocks_stats proc).Ocolos_proc.Block_engine.resident;
  Alcotest.(check bool) "cache coherent after patch" true (Proc.validate_code_cache proc)

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

(* ---- allocation gate: the Blocks hot path allocates nothing ---- *)

(* Minor words per retired instruction over [instrs] instructions of
   [proc] on [`Blocks]. The horizon is finite, so the per-instruction
   cycle check runs, as it does in every timed window. *)
let minor_words_per_instr proc ~instrs =
  let instret0 = proc.Proc.instret in
  let words0 = Gc.minor_words () in
  Proc.run ~engine:`Blocks ~cycle_limit:1e18 ~max_instrs:instrs proc;
  let words = Gc.minor_words () -. words0 in
  words /. float_of_int (proc.Proc.instret - instret0)

(* The per-instruction and per-taken-branch paths (caches, BTB, RNG, data
   memory, horizon check, LBR) allocate nothing, so a warmed server
   allocates only per dispatch-table miss, per scheduler round and per
   PMI. Measured in the default (dev) profile, whose [-opaque] boxes any
   float that crosses a module boundary: a horizon check that returns
   [Core.cycles] alone costs 2 words per instruction. *)
let test_hot_path_allocation () =
  let w = Apps.memcached_like () in
  let proc = Workload.launch w ~input:(Workload.find_input w "set10_get90") in
  ignore (minor_words_per_instr proc ~instrs:300_000);
  let bare = minor_words_per_instr proc ~instrs:300_000 in
  let session = Ocolos_profiler.Perf.start proc in
  let sampled = minor_words_per_instr proc ~instrs:300_000 in
  ignore (Ocolos_profiler.Perf.stop session);
  Printf.printf "minor words/instr: %.3f bare, %.3f under Perf\n" bare sampled;
  Alcotest.(check bool) (Printf.sprintf "bare %.3f <= 0.5 words/instr" bare) true (bare <= 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "under Perf %.3f <= 1.0 words/instr" sampled)
    true (sampled <= 1.0)

let suite =
  [ Alcotest.test_case "differential: tiny app, fault + replacement" `Quick
      test_differential_tiny;
    Alcotest.test_case "differential: random workloads x seeds" `Slow
      test_differential_random_seeds;
    Alcotest.test_case "stats and validate" `Quick test_stats_and_validate;
    Alcotest.test_case "code write invalidates cached blocks" `Quick
      test_code_write_invalidates;
    Alcotest.test_case "code removal invalidates cached blocks" `Quick
      test_code_removal_invalidates;
    Alcotest.test_case "validate sees stale blocks" `Quick test_validate_sees_stale_blocks;
    Alcotest.test_case "chained block invalidated alone" `Quick test_chained_block_invalidated;
    Alcotest.test_case "engines interleave coherently" `Quick test_engines_interleave;
    Alcotest.test_case "write spanning two blocks invalidates both" `Quick
      test_write_spanning_blocks_invalidates_both;
    Alcotest.test_case "write inside an instruction invalidates its block" `Quick
      test_write_mid_instruction_invalidates;
    Alcotest.test_case "rollback invalidates exactly the restored spans" `Quick
      test_rollback_invalidates_restored_spans;
    Alcotest.test_case "a run cut short still invalidates its span" `Quick
      test_run_cut_short_invalidates;
    Alcotest.test_case "resident accounting under overlapping blocks" `Quick
      test_resident_accounting_overlapping_blocks;
    Alcotest.test_case "write_code rejects bad register operands" `Quick
      test_write_code_rejects_bad_regs;
    Alcotest.test_case "hot path allocates nothing" `Quick test_hot_path_allocation ]
