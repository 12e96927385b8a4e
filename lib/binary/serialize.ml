(* Binary image serialization: a compact single-file container ("OCLB")
   holding sections, code records, symbols, v-tables, globals, the entry
   point and debug info — enough to reload an identical Binary.t. Used by
   the CLI to save BOLTed binaries and reload them in later runs (the
   offline-BOLT deployment flow). *)

open Ocolos_isa

let magic = "OCLB\001"

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

(* ---- writing ---- *)

let put_int buf v = Encode.put_varint buf v

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_list buf put l =
  put_int buf (List.length l);
  List.iter (put buf) l

let put_array buf put a =
  put_int buf (Array.length a);
  Array.iter (put buf) a

let put_section buf (s : Binary.section) =
  put_string buf s.Binary.sec_name;
  put_int buf s.Binary.sec_base;
  put_int buf s.Binary.sec_size

let put_range buf (r : Binary.range) =
  put_int buf r.Binary.r_start;
  put_int buf r.Binary.r_size

let put_symbol buf (s : Binary.func_sym) =
  put_int buf s.Binary.fs_fid;
  put_string buf s.Binary.fs_name;
  put_int buf s.Binary.fs_entry;
  put_list buf put_range s.Binary.fs_ranges

let put_vtable buf (vt : Binary.vtable) =
  put_int buf vt.Binary.vt_id;
  put_int buf vt.Binary.vt_addr;
  put_array buf put_int vt.Binary.vt_entries

let to_bytes (b : Binary.t) =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf magic;
  put_string buf b.Binary.name;
  put_list buf put_section b.Binary.sections;
  (* Code: delta-encoded ascending addresses, each followed by the
     instruction record. *)
  put_int buf (Ocolos_util.Codemap.length b.Binary.code);
  let prev = ref 0 in
  Ocolos_util.Codemap.iter
    (fun addr i ->
      put_int buf (addr - !prev);
      prev := addr;
      Encode.encode buf i)
    b.Binary.code;
  put_array buf put_symbol b.Binary.symbols;
  put_array buf put_vtable b.Binary.vtables;
  put_int buf b.Binary.globals_base;
  put_int buf b.Binary.globals_words;
  put_list buf
    (fun buf (a, v) ->
      put_int buf a;
      put_int buf v)
    b.Binary.global_init;
  put_int buf b.Binary.entry;
  (* Debug info, in address order. *)
  put_int buf (Ocolos_util.Codemap.length b.Binary.debug);
  Ocolos_util.Codemap.iter
    (fun addr (fid, bid) ->
      put_int buf addr;
      put_int buf fid;
      put_int buf bid)
    b.Binary.debug;
  Buffer.to_bytes buf

(* ---- reading ---- *)

let get_int r = Encode.read_varint r

(* Strings are stored as raw bytes after their varint length. *)
let get_string r =
  let n = get_int r in
  if n < 0 then corrupt "negative string length";
  String.init n (fun _ -> Char.chr (Encode.read_byte r))

let get_list r get =
  let n = get_int r in
  if n < 0 then corrupt "negative list length";
  List.init n (fun _ -> get r)

let get_array r get =
  let n = get_int r in
  if n < 0 then corrupt "negative array length";
  Array.init n (fun _ -> get r)

let get_section r =
  let sec_name = get_string r in
  let sec_base = get_int r in
  let sec_size = get_int r in
  { Binary.sec_name; sec_base; sec_size }

let get_range r =
  let r_start = get_int r in
  let r_size = get_int r in
  { Binary.r_start; r_size }

let get_symbol r =
  let fs_fid = get_int r in
  let fs_name = get_string r in
  let fs_entry = get_int r in
  let fs_ranges = get_list r get_range in
  { Binary.fs_fid; fs_name; fs_entry; fs_ranges }

let get_vtable r =
  let vt_id = get_int r in
  let vt_addr = get_int r in
  let vt_entries = get_array r get_int in
  { Binary.vt_id; vt_addr; vt_entries }

let of_bytes bytes =
  let mlen = String.length magic in
  if Bytes.length bytes < mlen || Bytes.sub_string bytes 0 mlen <> magic then
    corrupt "bad magic";
  let r = Encode.reader_of_bytes (Bytes.sub bytes mlen (Bytes.length bytes - mlen)) in
  let name = get_string r in
  let sections = get_list r get_section in
  let ncode = get_int r in
  let code = Ocolos_util.Codemap.create () in
  if ncode < 0 then corrupt "negative code count";
  let prev = ref 0 in
  for i = 0 to ncode - 1 do
    let delta = get_int r in
    let addr = !prev + delta in
    if addr < 0 then corrupt "negative code address";
    if i > 0 && delta <= 0 then corrupt "code address 0x%x does not ascend" addr;
    if addr > Ocolos_util.Codemap.max_key then corrupt "code address out of range";
    prev := addr;
    Ocolos_util.Codemap.replace code addr (Encode.decode r)
  done;
  let symbols = get_array r get_symbol in
  let vtables = get_array r get_vtable in
  let globals_base = get_int r in
  let globals_words = get_int r in
  let global_init =
    get_list r (fun r ->
        let a = get_int r in
        let v = get_int r in
        (a, v))
  in
  let entry = get_int r in
  let ndebug = get_int r in
  let debug = Ocolos_util.Codemap.create () in
  for _ = 1 to ndebug do
    let addr = get_int r in
    if addr < 0 then corrupt "negative debug address";
    if addr > Ocolos_util.Codemap.max_key then corrupt "debug address out of range";
    let fid = get_int r in
    let bid = get_int r in
    Ocolos_util.Codemap.replace debug addr (fid, bid)
  done;
  { Binary.name;
    sections;
    code;
    symbols;
    vtables;
    globals_base;
    globals_words;
    global_init;
    entry;
    debug }

let save path b =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes b))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let bytes = Bytes.create n in
      really_input ic bytes 0 n;
      of_bytes bytes)
