(* objdump-style disassembly of binary images: functions in address order,
   instructions with addresses, basic-block boundaries from debug info, and
   symbolized targets for direct transfers. Used by the CLI's `disasm`
   command and handy when debugging layout transformations. *)

open Ocolos_isa

(* Symbolize a code address: "<name>" at entries, "<name>+0xoff>" inside. *)
let symbolize (b : Binary.t) index addr =
  match Binary.index_lookup index addr with
  | None -> Fmt.str "0x%x" addr
  | Some fid ->
    let s = b.Binary.symbols.(fid) in
    if addr = s.Binary.fs_entry then Fmt.str "<%s>" s.Binary.fs_name
    else Fmt.str "<%s+0x%x>" s.Binary.fs_name (addr - s.Binary.fs_entry)

let pp_instr_with_target b index fmt (addr, instr) =
  match Instr.static_target instr with
  | Some target ->
    Fmt.pf fmt "%a\t; -> %s" Instr.pp instr (symbolize b index target);
    ignore addr
  | None -> Instr.pp fmt instr

(* Disassemble one function (all its ranges, hot then cold split part). *)
let pp_function fmt (b : Binary.t) fid =
  let index = Binary.build_addr_index b in
  let s = b.Binary.symbols.(fid) in
  Fmt.pf fmt "%08x <%s>: (%d bytes%s)@." s.Binary.fs_entry s.Binary.fs_name
    (Binary.sym_size s)
    (if List.length s.Binary.fs_ranges > 1 then ", split" else "");
  let last_bid = ref (-1) in
  List.iter
    (fun (addr, instr) ->
      (match Ocolos_util.Codemap.find_opt b.Binary.debug addr with
      | Some (_, bid) when bid <> !last_bid ->
        last_bid := bid;
        Fmt.pf fmt "  .bb%d:@." bid
      | Some _ | None -> ());
      Fmt.pf fmt "    %08x:  %a@." addr (pp_instr_with_target b index) (addr, instr))
    (Binary.func_instrs b fid)

(* Section map plus every function, in address order. *)
let pp fmt (b : Binary.t) =
  Fmt.pf fmt "%a@.@." Binary.pp_summary b;
  List.iter
    (fun (s : Binary.section) ->
      Fmt.pf fmt "section %-14s [0x%x, 0x%x)@." s.Binary.sec_name s.Binary.sec_base
        (s.Binary.sec_base + s.Binary.sec_size))
    b.Binary.sections;
  Fmt.pf fmt "@.";
  Array.to_list b.Binary.symbols
  |> List.sort (fun (a : Binary.func_sym) b -> compare a.Binary.fs_entry b.Binary.fs_entry)
  |> List.iter (fun (s : Binary.func_sym) ->
         pp_function fmt b s.Binary.fs_fid;
         Fmt.pf fmt "@.")

let function_to_string b fid = Fmt.str "%a" (fun fmt () -> pp_function fmt b fid) ()
