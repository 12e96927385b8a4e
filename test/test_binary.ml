(* Unit tests for binaries, layouts and the emitter. *)

open Ocolos_isa
open Ocolos_binary

(* Three functions: main calls f via direct call and g via fp; f has a
   diamond; g is a leaf. *)
let program () =
  let main =
    { Ir.fid = 0;
      fname = "main";
      blocks =
        [| { Ir.bid = 0;
             body = [ Ir.SCall 1; Ir.SFpCreate (3, 2); Ir.SCallInd 3; Ir.Plain Instr.TxMark ];
             term = Ir.Thalt } |] }
  in
  let f =
    { Ir.fid = 1;
      fname = "f";
      blocks =
        [| { Ir.bid = 0; body = [ Ir.Plain (Instr.Rand (0, 2)) ]; term = Ir.Tbranch (Instr.Eq, 0, 2, 1) };
           { Ir.bid = 1; body = [ Ir.Plain (Instr.Movi (1, 1)) ]; term = Ir.Tjump 3 };
           { Ir.bid = 2; body = [ Ir.Plain (Instr.Movi (1, 2)) ]; term = Ir.Tjump 3 };
           { Ir.bid = 3; body = []; term = Ir.Tret } |] }
  in
  let g =
    { Ir.fid = 2;
      fname = "g";
      blocks = [| { Ir.bid = 0; body = [ Ir.Plain (Instr.Movi (2, 9)) ]; term = Ir.Tret } |] }
  in
  { Ir.funcs = [| main; f; g |];
    vtables = [| [| 1; 2 |] |];
    entry_fid = 0;
    globals_words = 8;
    global_init = [ (1, 77) ] }

let emit_it ?layout () =
  let p = program () in
  match layout with
  | None -> Emit.emit_default ~name:"t" p
  | Some l -> Emit.emit ~name:"t" p l

let test_emit_basic () =
  let e = emit_it () in
  let b = e.Emit.binary in
  Alcotest.(check int) "3 symbols" 3 (Array.length b.Binary.symbols);
  Alcotest.(check bool) "entry is main's" true (b.Binary.entry = b.Binary.symbols.(0).Binary.fs_entry);
  Alcotest.(check bool) "instrs present" true (Binary.instr_count b > 5);
  Alcotest.(check bool) "text bytes positive" true (Binary.text_bytes b > 0);
  Alcotest.(check bool) ".text section" true (Binary.section_named b ".text" <> None)

let test_function_alignment () =
  let e = emit_it () in
  Array.iter
    (fun s -> Alcotest.(check int) "aligned" 0 (s.Binary.fs_entry mod Emit.func_alignment))
    e.Emit.binary.Binary.symbols

let test_addr_resolution () =
  let e = emit_it () in
  let b = e.Emit.binary in
  let index = Binary.build_addr_index b in
  Ocolos_util.Codemap.iter
    (fun addr _ ->
      let via_index = Binary.index_lookup index addr in
      let via_scan = Option.map (fun s -> s.Binary.fs_fid) (Binary.func_of_addr b addr) in
      Alcotest.(check (option int)) "index agrees with scan" via_scan via_index)
    b.Binary.code;
  Alcotest.(check (option int)) "unmapped" None (Binary.index_lookup index 0x9999999)

let test_direct_call_sites () =
  let e = emit_it () in
  let b = e.Emit.binary in
  let sites = Binary.direct_call_sites b in
  Alcotest.(check int) "one direct call" 1 (List.length sites);
  let _, target = List.hd sites in
  Alcotest.(check int) "targets f" b.Binary.symbols.(1).Binary.fs_entry target

let test_vtable_entries_resolved () =
  let e = emit_it () in
  let b = e.Emit.binary in
  Alcotest.(check int) "vt entry 0 = f" b.Binary.symbols.(1).Binary.fs_entry
    b.Binary.vtables.(0).Binary.vt_entries.(0);
  Alcotest.(check int) "vt entry 1 = g" b.Binary.symbols.(2).Binary.fs_entry
    b.Binary.vtables.(0).Binary.vt_entries.(1)

let test_global_init_offsets () =
  let e = emit_it () in
  let b = e.Emit.binary in
  Alcotest.(check bool) "init rebased to absolute" true
    (List.mem (b.Binary.globals_base + 1, 77) b.Binary.global_init)

let test_fallthrough_elision () =
  (* In the default layout, f's branch fallthrough (bid 1) follows bid 0, so
     no jump is emitted for it, while bid 2's Tjump 3 is elided when 3
     follows. Verify by counting Jump instructions in f. *)
  let e = emit_it () in
  let b = e.Emit.binary in
  let jumps =
    Binary.func_instrs b 1
    |> List.filter (fun (_, i) -> match i with Instr.Jump _ -> true | _ -> false)
  in
  (* bid1 needs a jump over bid2 to reach bid3; bid2 falls into bid3. *)
  Alcotest.(check int) "exactly one jump in f" 1 (List.length jumps)

let test_layout_changes_encoding () =
  (* Reversing the diamond arms flips which side needs a jump; code size may
     change but the instruction mix stays consistent. *)
  let layout =
    [ { Layout.fid = 0; hot = [ 0 ]; cold = [] };
      { Layout.fid = 1; hot = [ 0; 2; 1; 3 ]; cold = [] };
      { Layout.fid = 2; hot = [ 0 ]; cold = [] } ]
  in
  let e = emit_it ~layout () in
  let b = e.Emit.binary in
  (* Branch in f's entry must now be negated to fall through into bid 2. *)
  let branches =
    Binary.func_instrs b 1
    |> List.filter_map (fun (_, i) ->
           match i with Instr.Branch (c, _, _) -> Some c | _ -> None)
  in
  Alcotest.(check bool) "negated branch" true (branches = [ Instr.Ne ])

let test_cold_split_ranges () =
  let layout =
    [ { Layout.fid = 0; hot = [ 0 ]; cold = [] };
      { Layout.fid = 1; hot = [ 0; 1; 3 ]; cold = [ 2 ] };
      { Layout.fid = 2; hot = [ 0 ]; cold = [] } ]
  in
  let e = emit_it ~layout () in
  let b = e.Emit.binary in
  let f = b.Binary.symbols.(1) in
  Alcotest.(check int) "two ranges (hot + cold)" 2 (List.length f.Binary.fs_ranges);
  (* The cold range sits after all hot code. *)
  let hot_range = List.hd f.Binary.fs_ranges and cold_range = List.nth f.Binary.fs_ranges 1 in
  Alcotest.(check bool) "cold after hot" true
    (cold_range.Binary.r_start > hot_range.Binary.r_start)

let test_layout_validate_rejects () =
  let p = program () in
  let bad = [ { Layout.fid = 1; hot = [ 1; 0; 2; 3 ]; cold = [] } ] in
  Alcotest.(check bool) "entry not first" true
    (match Layout.validate p bad with exception Layout.Invalid _ -> true | () -> false);
  let dup = [ { Layout.fid = 1; hot = [ 0; 1; 1; 2; 3 ]; cold = [] } ] in
  Alcotest.(check bool) "duplicate block" true
    (match Layout.validate p dup with exception Layout.Invalid _ -> true | () -> false);
  let missing = [ { Layout.fid = 1; hot = [ 0; 1 ]; cold = [] } ] in
  Alcotest.(check bool) "missing block" true
    (match Layout.validate p missing with exception Layout.Invalid _ -> true | () -> false)

let test_randomize_layouts_valid () =
  let p = program () in
  let rng = Ocolos_util.Rng.create 99 in
  for _ = 1 to 50 do
    Layout.validate p (Layout.randomize rng p)
  done

let test_jump_table_emission () =
  let f =
    { Ir.fid = 0;
      fname = "switchy";
      blocks =
        [| { Ir.bid = 0;
             body = [ Ir.Plain (Instr.Rand (2, 3)) ];
             term = Ir.Tjump_table (2, [| 1; 2; 3 |]) };
           { Ir.bid = 1; body = []; term = Ir.Thalt };
           { Ir.bid = 2; body = []; term = Ir.Thalt };
           { Ir.bid = 3; body = []; term = Ir.Thalt } |] }
  in
  let p =
    { Ir.funcs = [| f |]; vtables = [||]; entry_fid = 0; globals_words = 2; global_init = [] }
  in
  let e = Emit.emit_default ~name:"jt" p in
  let b = e.Emit.binary in
  (* Three table words materialized in the globals region, holding the
     absolute addresses of blocks 1..3. *)
  let table_words =
    List.filter (fun (addr, _) -> addr >= b.Binary.globals_base + 2) b.Binary.global_init
  in
  Alcotest.(check int) "three table entries" 3 (List.length table_words);
  List.iter
    (fun (_, target) ->
      Alcotest.(check bool) "table entry is code" true (Binary.find_instr b target <> None))
    table_words

let test_negate_cond_involution () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "involution" true (Emit.negate_cond (Emit.negate_cond c) = c);
      (* Negation complements the predicate on every value. *)
      List.iter
        (fun v ->
          Alcotest.(check bool) "complement" (not (Instr.eval_cond c v))
            (Instr.eval_cond (Emit.negate_cond c) v))
        [ -5; -1; 0; 1; 5 ])
    [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Ge; Instr.Gt; Instr.Le ]

let suite =
  [ Alcotest.test_case "emit basic" `Quick test_emit_basic;
    Alcotest.test_case "function alignment" `Quick test_function_alignment;
    Alcotest.test_case "address resolution" `Quick test_addr_resolution;
    Alcotest.test_case "direct call sites" `Quick test_direct_call_sites;
    Alcotest.test_case "vtable entries resolved" `Quick test_vtable_entries_resolved;
    Alcotest.test_case "global init offsets" `Quick test_global_init_offsets;
    Alcotest.test_case "fallthrough elision" `Quick test_fallthrough_elision;
    Alcotest.test_case "layout changes encoding" `Quick test_layout_changes_encoding;
    Alcotest.test_case "cold split ranges" `Quick test_cold_split_ranges;
    Alcotest.test_case "layout validation" `Quick test_layout_validate_rejects;
    Alcotest.test_case "randomized layouts valid" `Quick test_randomize_layouts_valid;
    Alcotest.test_case "jump table emission" `Quick test_jump_table_emission;
    Alcotest.test_case "negate_cond involution" `Quick test_negate_cond_involution ]
