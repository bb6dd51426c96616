(* Streaming fault-tolerant ingestion.  See stream.mli. *)

type source = Chunked.source

let of_channel = Chunked.of_channel
let of_string = Chunked.of_string

type fault = { record : int; subject : string; text : string; message : string }

type 'g outcome = {
  graph : 'g;
  complete : bool;
  faults : fault list;
  budget_exhausted : bool;
  records : int;
}

exception Stop

let make_outcome graph faults budget_exhausted records =
  { graph; complete = faults = [] && not budget_exhausted; faults; budget_exhausted; records }

let read_pgf ?max_errors ?(on_fault = fun _ -> ()) source =
  let b = Pgf.inc_create () in
  let faults = ref [] in
  let nfaults = ref 0 in
  let records = ref 0 in
  let exhausted = ref false in
  (try
     Chunked.iter_lines source (fun lineno s start stop ->
         match Pgf.inc_line b lineno s start stop with
         | Ok applied -> if applied then incr records
         | Error e ->
           incr records;
           let f =
             {
               record = lineno;
               subject = Printf.sprintf "line %d" lineno;
               text = String.sub s start (stop - start);
               message = e.Pgf.message;
             }
           in
           faults := f :: !faults;
           incr nfaults;
           on_fault f;
           (match max_errors with
           | Some m when !nfaults > m ->
             exhausted := true;
             raise Stop
           | _ -> ()))
   with Stop -> ());
  make_outcome (Pgf.inc_columns b) (List.rev !faults) !exhausted !records

let fault_of_graphml (gf : Graphml.fault) =
  { record = gf.Graphml.f_record; subject = gf.f_subject; text = gf.f_raw; message = gf.f_message }

let read_graphml ?max_errors ?(on_fault = fun _ -> ()) source =
  match
    Graphml.read_tolerant ?max_skipped:max_errors
      ~on_fault:(fun gf -> on_fault (fault_of_graphml gf))
      source
  with
  | Ok (graph, gfaults, exhausted, records) ->
    Ok (make_outcome graph (List.map fault_of_graphml gfaults) exhausted records)
  | Error e -> Error e

(* Quarantine files collect the raw text of skipped records, one per
   line, created lazily so a clean ingest leaves no file behind.  The
   records are the operator's only copy of the data that was dropped,
   so they go through {!Durable}: written to a temp file, fsynced and
   renamed into place when the ingest finishes — a crash mid-ingest
   leaves no half-written quarantine, and a completed ingest's
   quarantine survives power loss. *)
let with_quarantine path k =
  let w = ref None in
  let write (f : fault) =
    let out =
      match !w with
      | Some out -> out
      | None ->
        let out = Durable.create path in
        w := Some out;
        out
    in
    Durable.write out f.text;
    Durable.write out "\n"
  in
  match k write with
  | v ->
    Option.iter Durable.commit !w;
    v
  | exception e ->
    Option.iter Durable.abort !w;
    raise e

let load_pgf ?max_errors ?quarantine path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let go on_fault = read_pgf ?max_errors ~on_fault (of_channel ic) in
        match quarantine with
        | None -> go (fun _ -> ())
        | Some qpath -> with_quarantine qpath go)
  with
  | exception Sys_error message -> Result.Error { Pgf.line = 0; message }
  | exception Unix.Unix_error (e, _, _) ->
    Result.Error { Pgf.line = 0; message = Unix.error_message e }
  | outcome -> Ok outcome

let load_graphml ?max_errors ?quarantine path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let go on_fault = read_graphml ?max_errors ~on_fault (of_channel ic) in
        match quarantine with
        | None -> go (fun _ -> ())
        | Some qpath -> with_quarantine qpath go)
  with
  | exception Sys_error message -> Result.Error { Graphml.message }
  | exception Unix.Unix_error (e, _, _) ->
    Result.Error { Graphml.message = Unix.error_message e }
  | r -> r
