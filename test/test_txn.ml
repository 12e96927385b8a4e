(* Property tests for transactional code replacement (Txn) and the
   deterministic fault-injection registry (Fault).

   The load-bearing invariant: a fault firing at ANY named injection point,
   at ANY hit of that point, rolls the process back to an observably
   identical pre-replacement state — address space, symbol index, thread
   stacks, controller state — with zero dangling pointers into the aborted
   injection region, and subsequent execution (down to the exact taken-
   branch trace) is indistinguishable from a run that never attempted the
   replacement.

   The seeded sweep below exercises every injection point across both a
   first (C0 -> C1) and a continuous (C1 -> C2) round; hit indices are
   drawn per seed from the point's actual hit count, discovered by a probe
   transaction that faults at "commit" (the final cut, so every earlier
   point's counter is populated and the probe itself rolls back). Set
   OCOLOS_DEEP_TESTS=1 to widen the sweep. *)

open Ocolos_workloads
module O = Ocolos_core.Ocolos
module Txn = Ocolos_core.Txn
module F = Ocolos_util.Fault
module Rng = Ocolos_util.Rng
module Proc = Ocolos_proc.Proc
module Addr_space = Ocolos_proc.Addr_space
module Thread = Ocolos_proc.Thread
module Osr = Ocolos_core.Osr
module Binary = Ocolos_binary.Binary

let deep = Sys.getenv_opt "OCOLOS_DEEP_TESTS" <> None
let seeds_per_point = if deep then 24 else 8

(* ---- fault registry unit properties ---- *)

let count_fires f point n =
  let fires = ref 0 in
  for _ = 1 to n do
    match F.cut f point with
    | () -> ()
    | exception F.Injected _ -> incr fires
  done;
  !fires

let test_fault_schedules () =
  let f = F.create ~seed:1 () in
  F.arm f "a" (F.Nth 3);
  Alcotest.(check int) "Nth fires exactly once" 1 (count_fires f "a" 10);
  Alcotest.(check int) "Nth hit recorded" 10 (F.hits f "a");
  F.arm f "b" (F.Every 4);
  Alcotest.(check int) "Every k fires n/k times" 3 (count_fires f "b" 12);
  F.arm f "c" F.Never;
  Alcotest.(check int) "Never never fires" 0 (count_fires f "c" 50);
  Alcotest.(check int) "unarmed points count hits" 0 (count_fires f "d" 5);
  Alcotest.(check int) "unarmed hits" 5 (F.hits f "d");
  F.reset f;
  Alcotest.(check int) "reset zeroes hits" 0 (F.hits f "a");
  Alcotest.(check int) "reset re-enables Nth" 1 (count_fires f "a" 10);
  F.disarm f "a";
  Alcotest.(check int) "disarmed point is quiet" 0 (count_fires f "a" 10);
  Alcotest.(check int) "total fired since reset" 1 (F.total_fired f)

let test_fault_prob_deterministic () =
  (* Identical seeds replay the identical firing pattern; a different seed
     gives a different (but still deterministic) one. *)
  let pattern seed =
    let f = F.create ~seed () in
    F.arm f "p" (F.Prob 0.3);
    List.init 200 (fun _ -> match F.cut f "p" with () -> false | exception F.Injected _ -> true)
  in
  Alcotest.(check (list bool)) "same seed, same pattern" (pattern 7) (pattern 7);
  Alcotest.(check bool) "different seed, different pattern" false (pattern 7 = pattern 8);
  let fires = List.length (List.filter (fun b -> b) (pattern 7)) in
  Alcotest.(check bool) "rate plausible" true (fires > 20 && fires < 120)

let test_fault_parse_arm () =
  let f = F.create () in
  Alcotest.(check (result string string)) "bare point" (Ok "pause") (F.parse_arm f "pause");
  Alcotest.(check (result string string)) "nth" (Ok "inject_code") (F.parse_arm f "inject_code:5");
  Alcotest.(check (result string string)) "every" (Ok "x") (F.parse_arm f "x:every:3");
  Alcotest.(check (result string string)) "prob" (Ok "y") (F.parse_arm f "y:p:0.25");
  (match F.parse_arm f "z:garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk spec accepted");
  (* The armed schedules actually behave as parsed. *)
  Alcotest.(check int) "parsed nth=5" 1 (count_fires f "inject_code" 9);
  Alcotest.(check int) "parsed every=3" 3 (count_fires f "x" 9);
  Alcotest.(check int) "parsed bare = nth 1" 1 (count_fires f "pause" 9)

(* ---- observable machine state, for exact rollback comparison ---- *)

type state = {
  st_code : (int * Ocolos_isa.Instr.t) list;
  st_data : (int * int) list;
  st_sym : Addr_space.sym_range list;
  st_code_bytes : int;
  st_map_base : int;
  st_threads : (int * (int * int) list * int list) list; (* pc, frames, regs *)
  st_version : int;
  st_symbols : (int * int * (int * int) list) list; (* live view: fid, entry, ranges *)
  st_fp : (int * int) list; (* C0 entry -> what the live fp hook resolves it to *)
  st_resident : (int * int) list list;
  st_entry_fid : (int * int) list;
  st_words : int list * int list; (* tracked, table *)
  st_residue : (int * int * (int * int) list) list;
  st_inherited : (int * int list) list;
  st_paused : bool;
}

let capture (proc : Proc.t) oc =
  let mem = proc.Proc.mem and view = O.view oc in
  let sorted_bindings fold tbl = fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  { st_code = sorted_bindings Ocolos_util.Codemap.fold mem.Addr_space.code;
    st_data = sorted_bindings Ocolos_util.Itbl.fold mem.Addr_space.data;
    st_sym = List.sort compare (Array.to_list mem.Addr_space.sym_index);
    st_code_bytes = mem.Addr_space.code_bytes;
    st_map_base = mem.Addr_space.next_map_base;
    st_threads =
      Array.to_list proc.Proc.threads
      |> List.map (fun (th : Thread.t) ->
             ( th.Thread.pc,
               List.init th.Thread.depth (fun i ->
                   let f = th.Thread.frames.(i) in
                   (f.Thread.ret_addr, f.Thread.callee_entry)),
               Array.to_list th.Thread.regs ));
    st_version = O.version oc;
    st_symbols =
      Array.to_list (O.current_binary oc).Binary.symbols
      |> List.map (fun (s : Binary.func_sym) ->
             ( s.Binary.fs_fid,
               s.Binary.fs_entry,
               List.map (fun r -> (r.Binary.r_start, r.Binary.r_size)) s.Binary.fs_ranges ));
    st_fp =
      (let fp = Option.get proc.Proc.hooks.Proc.translate_fp in
       Array.to_list proc.Proc.binary.Binary.symbols
       |> List.map (fun (s : Binary.func_sym) -> (s.Binary.fs_entry, fp s.Binary.fs_entry)));
    st_resident = Array.to_list view.Osr.resident;
    st_entry_fid = Osr.Imap.bindings view.Osr.entry_fid;
    st_words = (Osr.Iset.elements view.Osr.init_addrs, Osr.Iset.elements view.Osr.table_addrs);
    st_residue =
      List.map
        (fun (r : Osr.residue) -> (r.Osr.rs_fid, r.Osr.rs_round, r.Osr.rs_ranges))
        view.Osr.residue;
    st_inherited = view.Osr.inherited;
    st_paused = proc.Proc.paused }

let check_restored ctx before after =
  let part what a b = Alcotest.(check bool) (ctx ^ ": " ^ what ^ " restored") true (a = b) in
  part "code map" before.st_code after.st_code;
  part "data memory" before.st_data after.st_data;
  part "symbol index" before.st_sym after.st_sym;
  part "code bytes" before.st_code_bytes after.st_code_bytes;
  part "mmap cursor" before.st_map_base after.st_map_base;
  part "thread pcs/stacks/regs" before.st_threads after.st_threads;
  part "controller version" before.st_version after.st_version;
  part "live symbol entries and ranges" before.st_symbols after.st_symbols;
  part "fp resolution of C0 entries" before.st_fp after.st_fp;
  part "resident ranges" before.st_resident after.st_resident;
  part "entry index" before.st_entry_fid after.st_entry_fid;
  part "tracked words" before.st_words after.st_words;
  part "residue" before.st_residue after.st_residue;
  part "inherited words" before.st_inherited after.st_inherited;
  part "paused flag" before.st_paused after.st_paused

(* ---- the seeded sweep over every injection point ---- *)

let disarm_all fault =
  F.reset fault;
  List.iter (F.disarm fault) Txn.injection_points

let setup () =
  (* Build with jump tables so BOLT's output carries table data and the
     inject_data point is reachable. *)
  let base = Apps.tiny ~tx_limit:None () in
  let w =
    Workload.build ~no_jump_tables:false ~name:"tiny-jt" ~inputs:base.Workload.inputs
      ~nthreads:2 base.Workload.gen
  in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let fault = F.create ~seed:11 () in
  (* Boundary-only frame maps: every mid-block PC then needs a compensation
     stub, so the osr_stub point is exercised by the sweep. *)
  let config =
    { O.default_config with
      O.fault = Some fault;
      O.bolt = { O.default_config.O.bolt with Ocolos_bolt.Bolt.exact_frame_maps = false } }
  in
  let oc = O.attach ~config proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:40_000 proc;
  (proc, oc, fault)

let profile_and_bolt proc oc =
  O.start_profiling oc;
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  result

(* Per-point hit counts for a full round, discovered without committing:
   fault at "commit", the final cut, so every earlier counter fills in and
   the probe rolls back. *)
let probe_hit_counts fault oc result =
  disarm_all fault;
  F.arm fault "commit" (F.Nth 1);
  (match Txn.replace_code oc result with
  | Txn.Rolled_back rb -> Alcotest.(check string) "probe faulted at commit" "commit" rb.Txn.rb_point
  | Txn.Committed _ -> Alcotest.fail "commit probe committed"
  | Txn.Diverged _ -> Alcotest.fail "commit probe diverged");
  let counts = List.map (fun p -> (p, F.hits fault p)) Txn.injection_points in
  disarm_all fault;
  counts

let aborted_region (result : Ocolos_bolt.Bolt.result) =
  [ ( result.Ocolos_bolt.Bolt.bolt_base,
      Ocolos_bolt.Bolt.sections_end result.Ocolos_bolt.Bolt.new_text ) ]

(* For every reachable point and [seeds_per_point] seeds each, fault at a
   seed-chosen hit and require an exact rollback; then unwind the fully
   applied replacement once through a rejecting [verify] gate, after the
   new view was assigned, and require the same. Returns the number of
   attempts made. *)
let sweep_round ~tag proc oc fault result =
  let counts = probe_hit_counts fault oc result in
  let attempts = ref 0 in
  List.iter
    (fun (point, hits) ->
      if hits > 0 then
        for s = 1 to seeds_per_point do
          let rng = Rng.create (Hashtbl.hash (tag, point, s)) in
          let nth = 1 + Rng.int rng hits in
          let ctx = Printf.sprintf "%s %s:%d (seed %d)" tag point nth s in
          disarm_all fault;
          F.arm fault point (F.Nth nth);
          let before = capture proc oc in
          (match Txn.replace_code oc result with
          | Txn.Rolled_back rb ->
            Alcotest.(check string) (ctx ^ ": faulted point") point rb.Txn.rb_point;
            Alcotest.(check int) (ctx ^ ": faulted hit") nth rb.Txn.rb_hit
          | Txn.Committed _ -> Alcotest.fail (ctx ^ ": committed despite armed fault")
          | Txn.Diverged _ -> Alcotest.fail (ctx ^ ": diverged despite armed fault"));
          incr attempts;
          check_restored ctx before (capture proc oc);
          (* Zero dangling pointers into the aborted injection region. *)
          O.verify_no_dangling oc ~freed:(aborted_region result);
          Alcotest.(check bool) (ctx ^ ": journal closed") false
            (Addr_space.journaling proc.Proc.mem)
        done)
    counts;
  disarm_all fault;
  let before = capture proc oc in
  (match Txn.replace_code ~verify:(fun () -> Error "forced") oc result with
  | Txn.Diverged _ -> ()
  | Txn.Committed _ | Txn.Rolled_back _ -> Alcotest.fail (tag ^ ": forced verdict did not diverge"));
  check_restored (tag ^ " diverged") before (capture proc oc);
  (counts, !attempts)

let test_rollback_every_point_every_seed () =
  let proc, oc, fault = setup () in
  (* Every round retires the re-emitted functions' old text (round 1 dooms
     their C0 ranges), so the OSR points (osr_frame per paused thread,
     osr_map per doomed-pointer resolution, osr_stub per compensation-stub
     build), gc_unmap and verify are reachable from round 1; gc_reap needs
     an earlier round's residue to go dead, so rounds 2-3 cover it. After
     each sweep the same swept state must still commit cleanly — that is
     the commit-fully half of the invariant. *)
  let total_attempts = ref 0 in
  let reached = Hashtbl.create 16 in
  for round = 1 to 3 do
    let result = profile_and_bolt proc oc in
    let counts, attempts = sweep_round ~tag:(Printf.sprintf "r%d" round) proc oc fault result in
    total_attempts := !total_attempts + attempts;
    List.iter (fun (p, h) -> if h > 0 then Hashtbl.replace reached p ()) counts;
    disarm_all fault;
    (match Txn.replace_code oc result with
    | Txn.Committed stats ->
      Alcotest.(check int) (Printf.sprintf "committed C%d after sweep" round) round
        stats.O.version
    | Txn.Rolled_back _ -> Alcotest.fail "unarmed commit rolled back"
    | Txn.Diverged _ -> Alcotest.fail "unarmed commit diverged");
    Proc.run ~cycle_limit:infinity ~max_instrs:80_000 proc
  done;
  (* Every named injection point must be reachable somewhere in the sweep —
     otherwise it silently proves nothing about that point. *)
  List.iter
    (fun p -> Alcotest.(check bool) (p ^ " reachable in sweep") true (Hashtbl.mem reached p))
    Txn.injection_points;
  Alcotest.(check bool)
    (Printf.sprintf "sweep covered >= 100 seeded attempts (got %d)" !total_attempts)
    true (!total_attempts >= 100);
  Alcotest.(check bool) "process alive after sweep" true (Proc.runnable proc)

(* ---- execution-trace equivalence after rollback ---- *)

let record_branches (proc : Proc.t) =
  let buf = ref [] in
  proc.Proc.hooks.Proc.on_taken_branch <-
    Some
      (fun ~tid ~from_addr ~to_addr ~kind ->
        buf := (tid, from_addr, to_addr, kind) :: !buf);
  buf

(* Run tiny to completion with [rounds_before] committed replacements, then
   (optionally) one rolled-back attempt at [point], then record the full
   taken-branch trace to termination. With rollback being exact, the
   attempt side must match the no-attempt side branch for branch —
   under every execution engine. Boundary-only frame maps keep the
   compensation-stub path hot in continuous rounds. *)
let traced_run ?(engine = `Blocks) ~rounds_before ~point () =
  let w = Apps.tiny ~tx_limit:(Some 300) () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let fault = F.create ~seed:3 () in
  let config =
    { O.default_config with
      O.fault = Some fault;
      O.bolt = { O.default_config.O.bolt with Ocolos_bolt.Bolt.exact_frame_maps = false } }
  in
  let oc = O.attach ~config proc in
  let run n = Proc.run ~engine ~cycle_limit:infinity ~max_instrs:n proc in
  run 40_000;
  let profile_and_bolt () =
    O.start_profiling oc;
    run 60_000;
    let profile, _ = O.stop_profiling oc in
    let result, _ = O.run_bolt oc profile in
    result
  in
  for _ = 1 to rounds_before do
    let r = profile_and_bolt () in
    (match Txn.replace_code oc r with
    | Txn.Committed _ -> ()
    | Txn.Rolled_back _ -> Alcotest.fail "setup round rolled back"
    | Txn.Diverged _ -> Alcotest.fail "setup round diverged");
    run 60_000
  done;
  let result = profile_and_bolt () in
  (match point with
  | None -> ()
  | Some (p, nth) -> (
    disarm_all fault;
    F.arm fault p (F.Nth nth);
    match Txn.replace_code oc result with
    | Txn.Rolled_back rb -> Alcotest.(check string) "attempt faulted where armed" p rb.Txn.rb_point
    | Txn.Committed _ -> Alcotest.fail "traced attempt committed"
    | Txn.Diverged _ -> Alcotest.fail "traced attempt diverged"));
  let trace = record_branches proc in
  Proc.run ~engine ~cycle_limit:infinity ~max_instrs:100_000_000 proc;
  (List.rev !trace, Workload.checksums proc, Proc.transactions proc)

let check_traces_equal ctx (trace_a, sums_a, tx_a) (trace_r, sums_r, tx_r) =
  Alcotest.(check (list int)) (ctx ^ ": checksums") sums_r sums_a;
  Alcotest.(check int) (ctx ^ ": transactions") tx_r tx_a;
  Alcotest.(check int) (ctx ^ ": trace length") (List.length trace_r) (List.length trace_a);
  Alcotest.(check bool) (ctx ^ ": traces nonempty") true (trace_r <> []);
  Alcotest.(check bool) (ctx ^ ": taken-branch traces identical") true (trace_a = trace_r)

let test_trace_identical_after_first_round_rollback () =
  let reference = traced_run ~rounds_before:0 ~point:None () in
  List.iter
    (fun (p, nth) ->
      check_traces_equal
        (Printf.sprintf "rollback at %s:%d" p nth)
        (traced_run ~rounds_before:0 ~point:(Some (p, nth)) ())
        reference)
    [ ("pause", 1); ("inject_code", 17); ("vtable_patch", 2); ("commit", 1) ]

(* The OSR fault points — kill mid-frame-rewrite (osr_frame), map-lookup
   miss path (osr_map), compensation-stub failure (osr_stub) — swept under
   both execution engines: after the rollback, the surviving version's
   taken-branch trace must be byte-identical to a run that never attempted
   the replacement. *)
let test_trace_identical_after_continuous_rollback () =
  List.iter
    (fun (ename, engine) ->
      let reference = traced_run ~engine ~rounds_before:1 ~point:None () in
      List.iter
        (fun (p, nth) ->
          check_traces_equal
            (Printf.sprintf "%s: continuous rollback at %s:%d" ename p nth)
            (traced_run ~engine ~rounds_before:1 ~point:(Some (p, nth)) ())
            reference)
        [ ("osr_frame", 1); ("osr_map", 1); ("osr_stub", 1); ("gc_unmap", 5); ("verify", 1) ])
    [ ("reference", `Reference); ("blocks", `Blocks) ]

(* ---- journal/transaction plumbing ---- *)

let test_journal_nesting_rejected () =
  let proc, _, _ = setup () in
  let mem = proc.Proc.mem in
  Addr_space.begin_journal mem;
  Alcotest.check_raises "nested journal"
    (Invalid_argument "Addr_space.begin_journal: journal already open") (fun () ->
      Addr_space.begin_journal mem);
  ignore (Addr_space.commit_journal mem);
  Alcotest.(check bool) "closed after commit" false (Addr_space.journaling mem)

let test_non_fault_exception_rolls_back_and_reraises () =
  (* A foreign exception mid-replacement must also roll back, then
     propagate. Injected faults become outcomes; anything else re-raises. *)
  let proc, oc, fault = setup () in
  let result = profile_and_bolt proc oc in
  let before = capture proc oc in
  disarm_all fault;
  (* An Every schedule with a huge k never fires, but Prob 1.0 always
     does — use it to reach the handler, then check the re-raise path with
     a deliberately poisoned call. *)
  F.arm fault "sym_index" (F.Prob 1.0);
  (match Txn.replace_code oc result with
  | Txn.Rolled_back rb -> Alcotest.(check string) "prob fault handled" "sym_index" rb.Txn.rb_point
  | Txn.Committed _ -> Alcotest.fail "prob fault did not fire"
  | Txn.Diverged _ -> Alcotest.fail "prob probe diverged");
  check_restored "prob rollback" before (capture proc oc);
  disarm_all fault;
  (* The journal honours plain rollback outside Txn too. *)
  let mem = proc.Proc.mem in
  Addr_space.begin_journal mem;
  Addr_space.write_code mem 0x9999_0000 (Ocolos_isa.Instr.Nop);
  Alcotest.(check bool) "mutation applied" true
    (Addr_space.read_code mem 0x9999_0000 <> None);
  let undone = Addr_space.rollback_journal mem in
  Alcotest.(check int) "one mutation undone" 1 undone;
  Alcotest.(check bool) "mutation reverted" true (Addr_space.read_code mem 0x9999_0000 = None);
  (* The state is still transactionally sound: a clean commit succeeds. *)
  (match Txn.replace_code oc result with
  | Txn.Committed stats -> Alcotest.(check int) "clean commit after rollbacks" 1 stats.O.version
  | Txn.Rolled_back _ -> Alcotest.fail "clean commit rolled back"
  | Txn.Diverged _ -> Alcotest.fail "clean commit diverged")

(* ---- mutation counts under a fixed fault schedule ---- *)

(* [rb_undone] feeds the simulated pause [Measure] charges for a rollback
   and the [ocolos_txn_mutations_undone_total] metric, so it must count one
   mutation per code write, code removal and data mutation however the
   journal stores them. Fault [point] at each of its hits in turn; within
   one round the count grows by one per hit (one more instruction injected
   or unmapped before the fault), from a base pinned per round. *)
let undone_at_every_hit fault oc result point ~hits =
  List.init hits (fun k ->
      disarm_all fault;
      F.arm fault point (F.Nth (k + 1));
      match Txn.replace_code oc result with
      | Txn.Rolled_back rb -> rb.Txn.rb_undone
      | Txn.Committed _ | Txn.Diverged _ -> Alcotest.fail (point ^ ": armed fault did not fire"))

let test_undone_counts_pinned () =
  let proc, oc, fault = setup () in
  (* (round, point, hits, mutations undone at the first hit) *)
  let pinned =
    [ (1, "inject_code", 588, 0);
      (1, "gc_unmap", 587, 884);
      (2, "inject_code", 576, 0);
      (2, "gc_unmap", 574, 1270) ]
  in
  for round = 1 to 2 do
    let result = profile_and_bolt proc oc in
    let counts = probe_hit_counts fault oc result in
    List.iter
      (fun (r, point, hits, first) ->
        if r = round then begin
          let ctx = Printf.sprintf "r%d %s" round point in
          Alcotest.(check int) (ctx ^ ": hits") hits (List.assoc point counts);
          Alcotest.(check (list int))
            (ctx ^ ": undone at each hit")
            (List.init hits (fun k -> first + k))
            (undone_at_every_hit fault oc result point ~hits)
        end)
      pinned;
    disarm_all fault;
    (match Txn.replace_code oc result with
    | Txn.Committed _ -> ()
    | Txn.Rolled_back _ | Txn.Diverged _ -> Alcotest.fail "unarmed commit failed");
    Proc.run ~cycle_limit:infinity ~max_instrs:80_000 proc
  done

let suite =
  [ Alcotest.test_case "fault schedules" `Quick test_fault_schedules;
    Alcotest.test_case "fault prob deterministic" `Quick test_fault_prob_deterministic;
    Alcotest.test_case "fault CLI spec parsing" `Quick test_fault_parse_arm;
    Alcotest.test_case "rollback exact at every point, seeded sweep" `Quick
      test_rollback_every_point_every_seed;
    Alcotest.test_case "trace identical after first-round rollback" `Quick
      test_trace_identical_after_first_round_rollback;
    Alcotest.test_case "trace identical after continuous rollback" `Slow
      test_trace_identical_after_continuous_rollback;
    Alcotest.test_case "journal nesting rejected" `Quick test_journal_nesting_rejected;
    Alcotest.test_case "foreign faults roll back too" `Quick
      test_non_fault_exception_rolls_back_and_reraises;
    Alcotest.test_case "undone counts pinned at every inject and unmap hit" `Quick
      test_undone_counts_pinned ]
