(* Clock, order statistics, files and host facts shared by the suite. *)

module GP = Graphql_pg
module Json = GP.Json

(* Monotonic nanoseconds ([bechamel.monotonic_clock]): immune to wall
   clock steps. *)
let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) /. 1e9
let ms_of_ns ns = Int64.to_float ns /. 1e6
let ms_since t0 = ms_of_ns (Int64.sub (now_ns ()) t0)

(* ---- order statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> Float.nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  match sorted xs with
  | [||] -> Float.nan
  | a ->
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* How many of [n] samples lie strictly above the [p] percentile's rank. *)
let beyond p n = n - int_of_float (Float.ceil (p *. float_of_int n))

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default exclusive method), so spreads read the same here and in
   any script that checks them. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let sum xs = List.fold_left ( +. ) 0. xs

(* ---- files ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let file_size path = (Unix.stat path).Unix.st_size

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_json path json = write_file path (Json.to_string ~indent:true json ^ "\n")

let read_json path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let json_num = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

(* ---- processes ---- *)

(* Peak resident set ([VmHWM]) of a live process, in KiB; [None] once it
   has exited. *)
let vm_hwm_kib pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> Some kb)
      | _ -> go ()
      | exception End_of_file -> None
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) go

(* User plus system CPU seconds a live process has used ([/proc/PID/stat]
   fields 14 and 15, in clock ticks of 1/100 s). *)
let cpu_s pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> None
  | ic -> (
    let stat = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
    (* the command name (field 2) may hold spaces: split after its ')' *)
    let from = String.rindex stat ')' + 2 in
    match String.split_on_char ' ' (String.sub stat from (String.length stat - from)) with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
      Some ((float_of_string utime +. float_of_string stime) /. 100.)
    | _ -> None)

(* ---- host ---- *)

(* The commit of the checkout, read from [.git] directly so that a
   source tree without git metadata reports "unknown". *)
let git_rev () =
  let read p = try Some (String.trim (read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" r) with
    | Some rev -> rev
    | None -> (
      match read ".git/packed-refs" with
      | None -> "unknown"
      | Some packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ rev; name ] when name = r -> Some rev
               | _ -> None)
        |> Option.value ~default:"unknown"))
  | Some rev -> rev

let host ~seed =
  Json.Assoc
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("git_rev", Json.String (git_rev ()));
      ("seed", Json.Int seed);
    ]
