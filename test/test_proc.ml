(* Unit tests for the process substrate: interpreter semantics, scheduler,
   hooks, stack walking, pause/resume, and a clone replaying like its
   source. *)

open Ocolos_isa
open Ocolos_proc

(* Emit and launch a one-function program from raw blocks. *)
let launch_blocks ?(vtables = [||]) ?(globals_words = 8) ?(global_init = [])
    ?(extra_funcs = []) blocks =
  let main = { Ir.fid = 0; fname = "main"; blocks } in
  let funcs = Array.of_list (main :: extra_funcs) in
  let p = { Ir.funcs; vtables; entry_fid = 0; globals_words; global_init } in
  Ir.validate p;
  let e = Ocolos_binary.Emit.emit_default ~name:"t" p in
  Proc.load ~nthreads:1 e.Ocolos_binary.Emit.binary

let run_to_halt proc = Proc.run ~cycle_limit:infinity ~max_instrs:1_000_000 proc

let test_alu_and_halt () =
  let proc =
    launch_blocks
      [| { Ir.bid = 0;
           body =
             [ Ir.Plain (Instr.Movi (0, 21));
               Ir.Plain (Instr.Alui (Instr.Mul, 1, 0, 2));
               Ir.Plain (Instr.Alu (Instr.Add, 2, 1, 0)) ];
           term = Ir.Thalt } |]
  in
  run_to_halt proc;
  let t = proc.Proc.threads.(0) in
  Alcotest.(check int) "r1 = 42" 42 t.Thread.regs.(1);
  Alcotest.(check int) "r2 = 63" 63 t.Thread.regs.(2);
  Alcotest.(check bool) "halted" true (t.Thread.state = Thread.Halted)

let test_load_store_globals () =
  let proc =
    launch_blocks ~global_init:[ (3, 123) ]
      [| { Ir.bid = 0;
           body =
             [ Ir.Plain (Instr.Load (1, 10, Ocolos_binary.Emit.default_globals_base + 3));
               Ir.Plain (Instr.Alui (Instr.Add, 1, 1, 1));
               Ir.Plain (Instr.Store (1, 10, Ocolos_binary.Emit.default_globals_base + 4)) ];
           term = Ir.Thalt } |]
  in
  run_to_halt proc;
  Alcotest.(check int) "loaded global" 124 proc.Proc.threads.(0).Thread.regs.(1);
  Alcotest.(check int) "stored global" 124 (Proc.read_global proc 4)

let test_branch_directions () =
  let proc =
    launch_blocks
      [| { Ir.bid = 0;
           body = [ Ir.Plain (Instr.Movi (0, 1)) ];
           term = Ir.Tbranch (Instr.Gt, 0, 1, 2) };
         { Ir.bid = 1; body = [ Ir.Plain (Instr.Movi (5, 111)) ]; term = Ir.Thalt };
         { Ir.bid = 2; body = [ Ir.Plain (Instr.Movi (5, 222)) ]; term = Ir.Thalt } |]
  in
  run_to_halt proc;
  Alcotest.(check int) "taken path" 111 proc.Proc.threads.(0).Thread.regs.(5)

let test_call_ret_stack () =
  let callee =
    { Ir.fid = 1;
      fname = "callee";
      blocks = [| { Ir.bid = 0; body = [ Ir.Plain (Instr.Movi (7, 7)) ]; term = Ir.Tret } |] }
  in
  let proc =
    launch_blocks ~extra_funcs:[ callee ]
      [| { Ir.bid = 0;
           body = [ Ir.SCall 1; Ir.Plain (Instr.Alui (Instr.Add, 7, 7, 1)) ];
           term = Ir.Thalt } |]
  in
  run_to_halt proc;
  Alcotest.(check int) "callee ran then returned" 8 proc.Proc.threads.(0).Thread.regs.(7);
  Alcotest.(check int) "stack empty at halt" 0 proc.Proc.threads.(0).Thread.depth

let test_ret_on_empty_stack_halts () =
  let proc = launch_blocks [| { Ir.bid = 0; body = []; term = Ir.Tret } |] in
  run_to_halt proc;
  Alcotest.(check bool) "halted" true (proc.Proc.threads.(0).Thread.state = Thread.Halted)

let test_vtable_dispatch () =
  let callee =
    { Ir.fid = 1;
      fname = "virt";
      blocks = [| { Ir.bid = 0; body = [ Ir.Plain (Instr.Movi (6, 66)) ]; term = Ir.Tret } |] }
  in
  let proc =
    launch_blocks ~vtables:[| [| 1 |] |] ~extra_funcs:[ callee ]
      [| { Ir.bid = 0;
           body = [ Ir.Plain (Instr.VtLoad (4, 0, 0)); Ir.SCallInd 4 ];
           term = Ir.Thalt } |]
  in
  run_to_halt proc;
  Alcotest.(check int) "virtual call ran" 66 proc.Proc.threads.(0).Thread.regs.(6)

let test_fp_hook_translation () =
  let callee =
    { Ir.fid = 1;
      fname = "f";
      blocks = [| { Ir.bid = 0; body = [ Ir.Plain (Instr.Movi (6, 1)) ]; term = Ir.Tret } |] }
  in
  let proc =
    launch_blocks ~extra_funcs:[ callee ]
      [| { Ir.bid = 0; body = [ Ir.SFpCreate (3, 1) ]; term = Ir.Thalt } |]
  in
  (* Hook rewrites every created pointer to a sentinel. *)
  proc.Proc.hooks.translate_fp <- Some (fun _ -> 0xDEAD);
  run_to_halt proc;
  Alcotest.(check int) "hook applied" 0xDEAD proc.Proc.threads.(0).Thread.regs.(3)

let test_rand_deterministic_per_seed () =
  let mk () =
    launch_blocks
      [| { Ir.bid = 0;
           body = [ Ir.Plain (Instr.Rand (1, 1000)); Ir.Plain (Instr.Rand (2, 1000)) ];
           term = Ir.Thalt } |]
  in
  let p1 = mk () and p2 = mk () in
  run_to_halt p1;
  run_to_halt p2;
  Alcotest.(check int) "same r1" p1.Proc.threads.(0).Thread.regs.(1)
    p2.Proc.threads.(0).Thread.regs.(1);
  Alcotest.(check int) "same r2" p1.Proc.threads.(0).Thread.regs.(2)
    p2.Proc.threads.(0).Thread.regs.(2)

let test_unmapped_fetch_faults () =
  let proc = launch_blocks [| { Ir.bid = 0; body = []; term = Ir.Tret } |] in
  proc.Proc.threads.(0).Thread.pc <- 0xBAD000;
  Alcotest.(check bool) "fault raised" true
    (match Proc.step proc proc.Proc.threads.(0) with
    | exception Proc.Fault _ -> true
    | () -> false);
  Alcotest.(check bool) "thread marked faulted" true
    (match proc.Proc.threads.(0).Thread.state with Thread.Faulted _ -> true | _ -> false)

let test_branch_hook_sees_taken_transfers () =
  let callee =
    { Ir.fid = 1;
      fname = "f";
      blocks = [| { Ir.bid = 0; body = []; term = Ir.Tret } |] }
  in
  let proc =
    launch_blocks ~extra_funcs:[ callee ]
      [| { Ir.bid = 0; body = [ Ir.SCall 1 ]; term = Ir.Thalt } |]
  in
  let kinds = ref [] in
  proc.Proc.hooks.on_taken_branch <-
    Some (fun ~tid:_ ~from_addr:_ ~to_addr:_ ~kind -> kinds := kind :: !kinds);
  run_to_halt proc;
  Alcotest.(check bool) "call observed" true (List.mem Proc.DirectCall !kinds);
  Alcotest.(check bool) "return observed" true (List.mem Proc.Return !kinds)

let test_pause_blocks_run () =
  let proc = launch_blocks [| { Ir.bid = 0; body = []; term = Ir.Thalt } |] in
  Proc.pause proc;
  Alcotest.(check bool) "run refused while paused" true
    (match Proc.run ~cycle_limit:10.0 proc with
    | exception Invalid_argument _ -> true
    | () -> false);
  Proc.resume proc;
  Proc.run ~cycle_limit:10.0 proc

let test_multi_thread_round_robin () =
  (* Two threads increment their own r1 in an infinite loop; both make
     progress under the cycle horizon. *)
  let blocks =
    [| { Ir.bid = 0; body = [ Ir.Plain (Instr.Alui (Instr.Add, 1, 1, 1)) ]; term = Ir.Tjump 0 } |]
  in
  let main = { Ir.fid = 0; fname = "main"; blocks } in
  let p =
    { Ir.funcs = [| main |]; vtables = [||]; entry_fid = 0; globals_words = 0; global_init = [] }
  in
  let e = Ocolos_binary.Emit.emit_default ~name:"t" p in
  let proc = Proc.load ~nthreads:2 e.Ocolos_binary.Emit.binary in
  Proc.run ~cycle_limit:5000.0 proc;
  Array.iter
    (fun t -> Alcotest.(check bool) "made progress" true (t.Thread.regs.(1) > 100))
    proc.Proc.threads;
  Alcotest.(check bool) "cycle horizon respected" true (Proc.max_cycles proc <= 5100.0)

let test_stack_walk () =
  (* main -> a -> b(halts): both return addresses visible mid-execution. *)
  let b_fn =
    { Ir.fid = 2; fname = "b"; blocks = [| { Ir.bid = 0; body = []; term = Ir.Thalt } |] }
  in
  let a_fn =
    { Ir.fid = 1; fname = "a"; blocks = [| { Ir.bid = 0; body = [ Ir.SCall 2 ]; term = Ir.Tret } |] }
  in
  let proc =
    launch_blocks ~extra_funcs:[ a_fn; b_fn ]
      [| { Ir.bid = 0; body = [ Ir.SCall 1 ]; term = Ir.Thalt } |]
  in
  run_to_halt proc;
  let t = proc.Proc.threads.(0) in
  (* Halt leaves the frames in place. *)
  Alcotest.(check int) "two frames" 2 (List.length (Thread.return_addresses t));
  List.iter
    (fun addr ->
      Alcotest.(check bool) "return addr maps to a function" true
        (Addr_space.fid_of_addr proc.Proc.mem addr <> None))
    (Thread.return_addresses t)

let test_reserve_code_fresh () =
  let proc = launch_blocks [| { Ir.bid = 0; body = []; term = Ir.Thalt } |] in
  let a = Addr_space.reserve_code proc.Proc.mem 1000 in
  let b = Addr_space.reserve_code proc.Proc.mem 1000 in
  Alcotest.(check bool) "disjoint" true (b >= a + 1000);
  Alcotest.(check bool) "above text" true
    (Addr_space.read_code proc.Proc.mem a = None)

(* A clone's threads replay on replay-only cores, which no architectural
   state may observe: a launched, warmed mysql analog and its clone, run for
   the same window on the reference engine, take the same branches and end
   with the same registers, stacks, data words and transaction counts. *)
let test_clone_replays_like_source () =
  let module Workload = Ocolos_workloads.Workload in
  let w = Ocolos_workloads.Apps.mysql_like () in
  let src = Workload.launch w ~input:(List.hd w.Workload.inputs) in
  Proc.run ~cycle_limit:infinity ~max_instrs:50_000 src;
  let cl = Proc.clone src in
  let replay (p : Proc.t) =
    let evs = ref [] in
    p.Proc.hooks.on_taken_branch <-
      Some (fun ~tid ~from_addr ~to_addr ~kind:_ -> evs := (tid, from_addr, to_addr) :: !evs);
    Proc.run ~engine:`Reference ~cycle_limit:infinity ~max_instrs:100_000 p;
    p.Proc.hooks.on_taken_branch <- None;
    List.rev !evs
  in
  let tx0 = Proc.transactions src in
  let src_evs = replay src and cl_evs = replay cl in
  Alcotest.(check bool) "events recorded" true (List.length src_evs > 1000);
  Alcotest.(check (list (triple int int int))) "taken-branch streams" src_evs cl_evs;
  Alcotest.(check int) "transactions since the clone" (Proc.transactions src - tx0)
    (Proc.transactions cl);
  Alcotest.(check bool) "transactions completed" true (Proc.transactions cl > 0);
  Array.iteri
    (fun tid (st : Thread.t) ->
      let ct = cl.Proc.threads.(tid) in
      let name what = Printf.sprintf "tid %d: %s" tid what in
      Alcotest.(check (array int)) (name "registers") st.Thread.regs ct.Thread.regs;
      Alcotest.(check int) (name "pc") st.Thread.pc ct.Thread.pc;
      Alcotest.(check (list int)) (name "stack") (Thread.return_addresses st)
        (Thread.return_addresses ct);
      Alcotest.(check int) (name "instret") st.Thread.instret ct.Thread.instret)
    src.Proc.threads;
  let words (p : Proc.t) =
    Ocolos_util.Itbl.fold (fun a v acc -> (a, v) :: acc) p.Proc.mem.Addr_space.data []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Alcotest.(check (list (pair int int))) "data words" (words src) (words cl)

let suite =
  [ Alcotest.test_case "alu and halt" `Quick test_alu_and_halt;
    Alcotest.test_case "load/store globals" `Quick test_load_store_globals;
    Alcotest.test_case "branch directions" `Quick test_branch_directions;
    Alcotest.test_case "call/ret stack" `Quick test_call_ret_stack;
    Alcotest.test_case "ret on empty stack halts" `Quick test_ret_on_empty_stack_halts;
    Alcotest.test_case "vtable dispatch" `Quick test_vtable_dispatch;
    Alcotest.test_case "fp hook translation" `Quick test_fp_hook_translation;
    Alcotest.test_case "rand deterministic" `Quick test_rand_deterministic_per_seed;
    Alcotest.test_case "unmapped fetch faults" `Quick test_unmapped_fetch_faults;
    Alcotest.test_case "branch hook" `Quick test_branch_hook_sees_taken_transfers;
    Alcotest.test_case "pause blocks run" `Quick test_pause_blocks_run;
    Alcotest.test_case "multi-thread round robin" `Quick test_multi_thread_round_robin;
    Alcotest.test_case "stack walk" `Quick test_stack_walk;
    Alcotest.test_case "reserve code fresh" `Quick test_reserve_code_fresh;
    Alcotest.test_case "a clone replays like its source" `Quick test_clone_replays_like_source ]
