(* Machine-code emission: linearize an IR program under a layout.

   Two-pass assembler. Pass 1 chooses terminator encodings from the block
   order (fallthrough needs no instruction; a conditional with a displaced
   fallthrough needs an extra jump) and assigns byte addresses. Pass 2
   resolves block and function addresses into the instructions, materializes
   jump tables into the global data region, and builds the symbol table. *)

open Ocolos_isa
module Codemap = Ocolos_util.Codemap

let default_text_base = 0x10000
let default_globals_base = 0x1000
let func_alignment = 16

let negate_cond = function
  | Instr.Eq -> Instr.Ne
  | Instr.Ne -> Instr.Eq
  | Instr.Lt -> Instr.Ge
  | Instr.Ge -> Instr.Lt
  | Instr.Gt -> Instr.Le
  | Instr.Le -> Instr.Gt

(* Pass-1 instruction with symbolic operands. *)
type pre_instr =
  | Fixed of Instr.t (* includes indirect calls: no static operand *)
  | CallF of int (* call function fid *)
  | FpCreateF of Instr.reg * int (* fid *)
  | BranchB of Instr.cond * Instr.reg * int (* block id, same function *)
  | JumpB of int (* block id, same function *)
  | TableBase of Instr.reg * Instr.reg * int (* dst <- sel + table base; table index *)

let pre_size = function
  | Fixed i -> Instr.size i
  | CallF _ -> Instr.size (Instr.Call 0)
  | FpCreateF (r, _) -> Instr.size (Instr.FpCreate (r, 0))
  | BranchB (c, r, _) -> Instr.size (Instr.Branch (c, r, 0))
  | JumpB _ -> Instr.size (Instr.Jump 0)
  | TableBase (d, s, _) -> Instr.size (Instr.Alui (Instr.Add, d, s, 0))

(* Lower one block given the block laid immediately after it ([next], or -1
   for none). Also returns jump-table allocations as (table index, target
   block ids). *)
let lower_block ~fresh_table (blk : Ir.block) ~next =
  let body =
    List.map
      (fun si ->
        match si with
        | Ir.Plain i -> Fixed i
        | Ir.SCall fid -> CallF fid
        | Ir.SCallInd r -> Fixed (Instr.CallInd r)
        | Ir.SFpCreate (r, fid) -> FpCreateF (r, fid))
      blk.Ir.body
  in
  let term =
    match blk.Ir.term with
    | Ir.Tjump t -> if next = t then [] else [ JumpB t ]
    | Ir.Tbranch (c, r, taken, fall) ->
      if next = fall then [ BranchB (c, r, taken) ]
      else if next = taken then [ BranchB (negate_cond c, r, fall) ]
      else [ BranchB (c, r, taken); JumpB fall ]
    | Ir.Tret -> [ Fixed Instr.Ret ]
    | Ir.Thalt -> [ Fixed Instr.Halt ]
    | Ir.Tjump_table (sel, targets) ->
      let table = fresh_table targets in
      [ TableBase (Ir.scratch_reg, sel, table);
        Fixed (Instr.Load (Ir.scratch_reg, Ir.scratch_reg, 0));
        Fixed (Instr.JumpInd Ir.scratch_reg) ]
  in
  body @ term

type emitted = {
  binary : Binary.t;
  func_entry : int array; (* fid -> entry address; -1 if not emitted *)
  block_addr : int array array; (* fid -> bid -> address; [||] if not emitted *)
  order : int array; (* [binary]'s instruction addresses, ascending *)
}

let emit ?(text_base = default_text_base) ?(globals_base = default_globals_base)
    ?(extern_entry = fun _ -> None) ?(section_name = ".text") ?(emit_vtables = true)
    ~name (program : Ir.program) (layout : Layout.t) : emitted =
  Layout.validate program layout;
  (* Jump-table allocation: tables are appended to the globals region.
     Ownership (fid, word index, target block ids) drives pass-2 fill. *)
  let n_table_words = ref 0 in
  let current_fid = ref (-1) in
  let table_owners : (int * int * int array) list ref = ref [] in
  let fresh_table targets =
    let index = !n_table_words in
    n_table_words := !n_table_words + Array.length targets;
    table_owners := (!current_fid, index, targets) :: !table_owners;
    index
  in
  (* Emission units: all hot parts in layout order, then all cold parts. *)
  let units =
    List.map (fun (fl : Layout.func_layout) -> (fl.fid, fl.hot, `Hot)) layout
    @ List.filter_map
        (fun (fl : Layout.func_layout) ->
          match fl.cold with [] -> None | cold -> Some (fl.fid, cold, `Cold))
        layout
  in
  (* Pass 1: lower blocks and assign addresses. *)
  let nfuncs = Array.length program.Ir.funcs in
  let block_addr = Array.make nfuncs [||] in
  List.iter
    (fun (fl : Layout.func_layout) ->
      block_addr.(fl.fid) <- Array.make (Array.length program.Ir.funcs.(fl.fid).Ir.blocks) (-1))
    layout;
  let n_instrs = ref 0 in
  let placed : (int * int * int * pre_instr list) list ref = ref [] in
  (* (fid, kind start addr, size, instrs) per unit for symbol ranges *)
  let unit_ranges : (int * [ `Hot | `Cold ] * Binary.range) list ref = ref [] in
  let cursor = ref text_base in
  let align n a = (n + a - 1) / a * a in
  List.iter
    (fun (fid, bids, kind) ->
      current_fid := fid;
      cursor := align !cursor func_alignment;
      let unit_start = !cursor in
      let f = program.Ir.funcs.(fid) in
      let bids_arr = Array.of_list bids in
      Array.iteri
        (fun i bid ->
          let next = if i + 1 < Array.length bids_arr then bids_arr.(i + 1) else -1 in
          let blk = f.Ir.blocks.(bid) in
          let instrs = lower_block ~fresh_table blk ~next in
          block_addr.(fid).(bid) <- !cursor;
          let start = !cursor in
          let size = List.fold_left (fun acc i -> acc + pre_size i) 0 instrs in
          cursor := !cursor + size;
          n_instrs := !n_instrs + List.length instrs;
          placed := (fid, bid, start, instrs) :: !placed)
        bids_arr;
      unit_ranges :=
        (fid, kind, { Binary.r_start = unit_start; r_size = !cursor - unit_start })
        :: !unit_ranges)
    units;
  let text_end = !cursor in
  (* Function entries: address of the entry block for emitted functions. *)
  let func_entry =
    Array.map (fun addrs -> if Array.length addrs = 0 then -1 else addrs.(0)) block_addr
  in
  let resolve_func fid =
    match func_entry.(fid) with
    | -1 -> (
      match extern_entry fid with
      | Some a -> a
      | None -> Fmt.failwith "Emit: no address for function %d" fid)
    | a -> a
  in
  (* Globals region: program globals then jump tables. *)
  let table_data_base = globals_base + program.Ir.globals_words in
  (* Pass 2: resolve operands and fill the code map. Blocks are visited in
     placement order, which is ascending address order, so [order] fills
     sorted; it is sized for the known instruction count. *)
  let code = Codemap.create () in
  let debug = Codemap.create () in
  let order = Array.make !n_instrs 0 in
  let k = ref 0 in
  List.iter
    (fun (fid, bid, start, instrs) ->
      let addr = ref start in
      let key = (fid, bid) in
      List.iter
        (fun pre ->
          let concrete =
            match pre with
            | Fixed i -> i
            | CallF callee -> Instr.Call (resolve_func callee)
            | FpCreateF (r, callee) -> Instr.FpCreate (r, resolve_func callee)
            | BranchB (c, r, bid') -> Instr.Branch (c, r, block_addr.(fid).(bid'))
            | JumpB bid' -> Instr.Jump block_addr.(fid).(bid')
            | TableBase (d, s, index) ->
              Instr.Alui (Instr.Add, d, s, table_data_base + index)
          in
          Codemap.replace code !addr concrete;
          Codemap.replace debug !addr key;
          order.(!k) <- !addr;
          incr k;
          addr := !addr + Instr.size concrete)
        instrs)
    (List.rev !placed);
  (* Jump-table initial data: absolute block addresses. *)
  let table_init =
    List.concat_map
      (fun (fid, index, targets) ->
        Array.to_list targets
        |> List.mapi (fun i bid ->
               (table_data_base + index + i, block_addr.(fid).(bid))))
      !table_owners
  in
  let globals_words_total = program.Ir.globals_words + !n_table_words in
  (* V-tables live right after the globals+tables in data memory. *)
  let vtables =
    if not emit_vtables then [||]
    else begin
      let vt_cursor = ref (globals_base + globals_words_total) in
      Array.mapi
        (fun vid entries ->
          let vt_addr = !vt_cursor in
          vt_cursor := !vt_cursor + Array.length entries;
          { Binary.vt_id = vid; vt_addr; vt_entries = Array.map resolve_func entries })
        program.Ir.vtables
    end
  in
  (* Symbol table: hot range first, then the cold range if the function was
     split. The units are bucketed by fid in one pass, each bucket keeping
     [unit_ranges]' order. *)
  let hot_ranges = Array.make nfuncs [] and cold_ranges = Array.make nfuncs [] in
  List.iter
    (fun (fid, kind, r) ->
      match kind with
      | `Hot -> hot_ranges.(fid) <- r :: hot_ranges.(fid)
      | `Cold -> cold_ranges.(fid) <- r :: cold_ranges.(fid))
    (List.rev !unit_ranges);
  let symbols =
    List.map
      (fun (fl : Layout.func_layout) ->
        { Binary.fs_fid = fl.fid;
          fs_name = program.Ir.funcs.(fl.fid).Ir.fname;
          fs_entry = func_entry.(fl.fid);
          fs_ranges = hot_ranges.(fl.fid) @ cold_ranges.(fl.fid) })
      layout
    |> List.sort (fun a b -> compare a.Binary.fs_fid b.Binary.fs_fid)
    |> Array.of_list
  in
  let global_init =
    List.map (fun (off, v) -> (globals_base + off, v)) program.Ir.global_init @ table_init
  in
  let entry =
    match func_entry.(program.Ir.entry_fid) with
    | -1 -> ( match extern_entry program.Ir.entry_fid with Some a -> a | None -> 0)
    | a -> a
  in
  let binary =
    { Binary.name;
      sections =
        [ { Binary.sec_name = section_name; sec_base = text_base; sec_size = text_end - text_base } ];
      code;
      symbols;
      vtables;
      globals_base;
      globals_words = globals_words_total;
      global_init;
      entry;
      debug }
  in
  { binary; func_entry; block_addr; order }

(* Convenience: emit with the source-order layout (the unoptimized binary a
   conventional compiler would produce). *)
let emit_default ?text_base ?globals_base ~name program =
  emit ?text_base ?globals_base ~name program (Layout.default program)
