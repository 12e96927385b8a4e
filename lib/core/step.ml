(* The gated optimize step (see step.mli): build = BOLT -> Tier-1
   validation, commit = Tier-2 shadow-gated transaction. *)

module Validate = Ocolos_bolt.Validate

let build guard oc profile =
  let result, bolt_s =
    Ocolos.run_bolt ~tier:(Guard.tier guard) ~exclude:(Guard.quarantined guard) oc profile
  in
  Guard.record_func_failures guard result.Ocolos_bolt.Bolt.failed;
  if Guard.check_deadline guard ~phase:`Bolt ~seconds:bolt_s then
    Error "watchdog: bolt deadline"
  else begin
    let report = Ocolos.validate_result oc result in
    if Validate.ok report then Ok (result, bolt_s)
    else begin
      (* A single rejection proves a miscompile: quarantine now, before
         any process pauses. *)
      List.iter
        (fun fid -> Guard.quarantine_now guard fid ~reason:"validate")
        (Validate.rejected_fids report);
      Error
        (Fmt.str "validation rejected: %s"
           (String.concat ","
              (List.filter (fun c -> Validate.check_rejections report c > 0) Validate.checks)))
    end
  end

let commit ?(shadow = true) oc result =
  let verify =
    if not shadow then None
    else
      let pre = Shadow.prepare oc in
      Some
        (fun () ->
          match Shadow.check (Shadow.arm pre oc result) with
          | Shadow.Match -> Ok ()
          | Shadow.Divergence why -> Error why)
  in
  Txn.replace_code ?verify oc result

let committed = function
  | Txn.Committed stats -> Ok stats
  | outcome -> Error (Fmt.str "%a" Txn.pp_outcome outcome)

let optimize oc profile =
  Result.bind (build (Guard.create ()) oc profile) (fun (result, _) ->
      committed (commit oc result))
