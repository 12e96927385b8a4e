(* The [bolt.miscompile] fault domain: silent corruption of a finished
   BOLT result, injected *past* every pass so that only the Tier-1
   validator ({!Validate}) and the Tier-2 shadow checker stand between the
   corruption and the fleet. Every existing fault domain models the
   pipeline *crashing*; this one models it *lying*.

   Five corruption modes, each targeting a distinct containment layer:
   - [branch_polarity]: negate one conditional branch in place (targets
     untouched) — caught by the validator's terminator-permutation check.
   - [drop_block]: erase one non-entry block's instructions from the new
     text — caught as a decode hole / invalid jump target.
   - [stale_reloc]: rewrite one relocated call / fp-create back to the
     callee's old entry — caught by the relocation check.
   - [frame_map]: shift one instruction-granular OSR map entry by one byte
     so it lands mid-instruction — caught by the frame-map boundary check.
   - [jump_table]: rotate the words of one emitted jump table. Every word
     remains a valid block start of the owning function, so this passes
     Tier 1 by design and must be reverted by the shadow checker.

   Mutations are pure (fresh hashtables / rebuilt lists; the input result
   is never modified) and deterministic: candidates are enumerated in
   address order and [salt] picks one. [apply] returns the mutation count —
   0 means the corruption found no applicable site (the chaos harness
   reports such scenarios as unreached rather than escaped). *)

open Ocolos_isa
open Ocolos_binary

let points =
  [ "bolt.miscompile.branch_polarity";
    "bolt.miscompile.drop_block";
    "bolt.miscompile.stale_reloc";
    "bolt.miscompile.frame_map";
    "bolt.miscompile.jump_table" ]

(* Functional update of [new_text] with a corrupted code map. [code_order]
   is rebuilt so anything that walks the image in address order (the
   replacement transaction's code injection) sees the corrupted view
   consistently. *)
let with_code (result : Bolt.result) code =
  let code_order =
    Array.of_list (List.filter (fun a -> Hashtbl.mem code a) (Array.to_list result.Bolt.new_text.Binary.code_order))
  in
  { result with Bolt.new_text = { result.Bolt.new_text with Binary.code; code_order } }

let pick salt n = if n <= 0 then invalid_arg "Miscompile.pick" else abs salt mod n

let branch_polarity ~salt (result : Bolt.result) =
  let nt = result.Bolt.new_text in
  let candidates =
    Array.to_list nt.Binary.code_order
    |> List.filter_map (fun a ->
           match Hashtbl.find_opt nt.Binary.code a with
           | Some (Instr.Branch (c, r, t)) -> Some (a, c, r, t)
           | _ -> None)
  in
  match candidates with
  | [] -> (result, 0)
  | _ ->
    let a, c, r, t = List.nth candidates (pick salt (List.length candidates)) in
    let code = Hashtbl.copy nt.Binary.code in
    Hashtbl.replace code a (Instr.Branch (Emit.negate_cond c, r, t));
    (with_code result code, 1)

let drop_block ~salt (result : Bolt.result) =
  let nt = result.Bolt.new_text in
  let starts = Hashtbl.create 64 in
  List.iter
    (fun (_, (fm : Frame_map.t)) ->
      Array.iter
        (fun (bs : Frame_map.block_site) -> Hashtbl.replace starts bs.Frame_map.bs_new_start ())
        fm.Frame_map.fm_blocks)
    result.Bolt.frame_maps;
  let candidates =
    List.concat_map
      (fun (_, (fm : Frame_map.t)) ->
        Array.to_list fm.Frame_map.fm_blocks
        |> List.filter_map (fun (bs : Frame_map.block_site) ->
               if bs.Frame_map.bs_new_start <> fm.Frame_map.fm_new_entry then
                 Some bs.Frame_map.bs_new_start
               else None))
      result.Bolt.frame_maps
    |> List.sort compare
  in
  match candidates with
  | [] -> (result, 0)
  | _ ->
    let start = List.nth candidates (pick salt (List.length candidates)) in
    let code = Hashtbl.copy nt.Binary.code in
    let removed = ref 0 in
    let pc = ref start in
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt code !pc with
      | Some i when !pc = start || not (Hashtbl.mem starts !pc) ->
        Hashtbl.remove code !pc;
        incr removed;
        pc := !pc + Instr.size i
      | _ -> continue := false
    done;
    (with_code result code, !removed)

let stale_reloc ~salt (result : Bolt.result) =
  let nt = result.Bolt.new_text in
  (* new entry -> old entry, over this run's translation *)
  let back = Hashtbl.create 64 in
  List.iter (fun (o, n) -> Hashtbl.replace back n o) result.Bolt.translation;
  let candidates =
    Array.to_list nt.Binary.code_order
    |> List.filter_map (fun a ->
           match Hashtbl.find_opt nt.Binary.code a with
           | Some (Instr.Call t) when Hashtbl.mem back t && Hashtbl.find back t <> t ->
             Some (a, Instr.Call (Hashtbl.find back t))
           | Some (Instr.FpCreate (r, t)) when Hashtbl.mem back t && Hashtbl.find back t <> t ->
             Some (a, Instr.FpCreate (r, Hashtbl.find back t))
           | _ -> None)
  in
  match candidates with
  | [] -> (result, 0)
  | _ ->
    let a, stale = List.nth candidates (pick salt (List.length candidates)) in
    let code = Hashtbl.copy nt.Binary.code in
    Hashtbl.replace code a stale;
    (with_code result code, 1)

let frame_map ~salt (result : Bolt.result) =
  let candidates =
    List.concat_map
      (fun (fid, (fm : Frame_map.t)) ->
        List.init (Frame_map.exact_points fm) (fun i -> (fid, i)))
      result.Bolt.frame_maps
    |> List.sort compare
  in
  match candidates with
  | [] -> (result, 0)
  | _ ->
    let fid, idx = List.nth candidates (pick salt (List.length candidates)) in
    let frame_maps =
      List.map
        (fun (f, (fm : Frame_map.t)) ->
          if f <> fid then (f, fm)
          else begin
            let fm_exact_new = Array.copy fm.Frame_map.fm_exact_new in
            fm_exact_new.(idx) <- fm_exact_new.(idx) + 1;
            (f, { fm with Frame_map.fm_exact_new })
          end)
        result.Bolt.frame_maps
    in
    ({ result with Bolt.frame_maps }, 1)

(* One emitted jump table = a maximal run of consecutive data words whose
   values are all block starts of one function. Rotating the run keeps
   every word a valid block start (Tier-1-clean) while re-aiming the
   dispatch — the corruption only Tier 2 can see. Tables whose words are
   all equal rotate to themselves and are skipped. *)
let jump_table ~salt (result : Bolt.result) =
  let fid_of_start = Hashtbl.create 64 in
  List.iter
    (fun (fid, (fm : Frame_map.t)) ->
      Array.iter
        (fun (bs : Frame_map.block_site) ->
          Hashtbl.replace fid_of_start bs.Frame_map.bs_new_start fid)
        fm.Frame_map.fm_blocks)
    result.Bolt.frame_maps;
  let init = List.sort compare result.Bolt.new_text.Binary.global_init in
  let runs = ref [] in
  let cur : (int * int) list ref = ref [] in
  let flush () =
    (match !cur with _ :: _ :: _ -> runs := List.rev !cur :: !runs | _ -> ());
    cur := []
  in
  List.iter
    (fun (a, v) ->
      match Hashtbl.find_opt fid_of_start v with
      | None -> flush ()
      | Some fid -> (
        match !cur with
        | (a', v') :: _ when a = a' + 1 && Hashtbl.find_opt fid_of_start v' = Some fid ->
          cur := (a, v) :: !cur
        | [] -> cur := [ (a, v) ]
        | _ ->
          flush ();
          cur := [ (a, v) ]))
    init;
  flush ();
  let rotatable =
    List.rev !runs
    |> List.filter (fun run ->
           match run with
           | (_, v0) :: rest -> List.exists (fun (_, v) -> v <> v0) rest
           | [] -> false)
  in
  match rotatable with
  | [] -> (result, 0)
  | _ ->
    let run = List.nth rotatable (pick salt (List.length rotatable)) in
    let addrs = List.map fst run and vals = List.map snd run in
    let rotated = match vals with v0 :: rest -> rest @ [ v0 ] | [] -> [] in
    let repl = Hashtbl.create 8 in
    List.iter2 (fun a v -> Hashtbl.replace repl a v) addrs rotated;
    let changed = ref 0 in
    let global_init =
      List.map
        (fun (a, v) ->
          match Hashtbl.find_opt repl a with
          | Some v' ->
            if v' <> v then incr changed;
            (a, v')
          | None -> (a, v))
        result.Bolt.new_text.Binary.global_init
    in
    ( { result with Bolt.new_text = { result.Bolt.new_text with Binary.global_init } },
      !changed )

let apply ~point ~salt result =
  match point with
  | "bolt.miscompile.branch_polarity" -> branch_polarity ~salt result
  | "bolt.miscompile.drop_block" -> drop_block ~salt result
  | "bolt.miscompile.stale_reloc" -> stale_reloc ~salt result
  | "bolt.miscompile.frame_map" -> frame_map ~salt result
  | "bolt.miscompile.jump_table" -> jump_table ~salt result
  | p -> invalid_arg ("Miscompile.apply: unknown point " ^ p)
