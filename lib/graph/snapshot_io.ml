(* Binary snapshot persistence.

   Layout (all integers 64-bit little-endian; "section" offsets are
   absolute byte positions, each 8-byte aligned so the int columns can
   be mapped as Bigarrays of kind [int] directly):

     0   magic "GPGSNAP1"
     8   format version (= 2)
     16  n (nodes)
     24  m (edges)
     32  nsyms (interned symbols referenced by the snapshot)
     40  total file size in bytes (including the trailing checksum)
     48  15 section offsets: sym, node_id, edge_id, node_label,
         edge_label, edge_src, edge_tgt, out_start, out_adj, in_start,
         in_adj, node_prop_off, edge_prop_off, node_props, edge_props
     168 sections ...
     size-8  CRC-32 (IEEE) of bytes [0, size-8), stored as int64

   The symtab section is nsyms length-prefixed strings in id order.
   The twelve integer sections are the raw native-int columns; on a
   64-bit little-endian host they are byte-compatible with the mmapped
   view, so [load] never copies them through the heap.  The two property
   sections are {!Props} pools, mapped the same way and scanned once at
   open; [node_prop_off] is n+1 absolute byte positions, entry i the
   start of node i's vector inside the node_props section (entry n its
   end), and [edge_prop_off] the same for edges.

   Symbol ids inside the file are the ids of the *writing* symtab.  The
   loader interns every stored name into the target table, rewrites the
   label columns through the resulting old->new map and hands the map
   to the pools as their translation — that is what makes a snapshot
   schema-independent (see the .mli). *)

module Fault = Pg_fault.Fault

let format_version = 2
let magic = "GPGSNAP1"
let n_sections = 15
let header_size = 48 + (8 * n_sections)

type error = { code : string; message : string }

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.code e.message

type info = { version : int; nodes : int; edges : int; symbols : int; bytes : int }

let err code fmt = Printf.ksprintf (fun message -> Error { code; message }) fmt

(* ---------- CRC-32 (IEEE 802.3), slicing-by-8 ---------- *)

(* Table k gives the CRC contribution of a byte k positions back, so eight
   independent lookups replace eight serially-dependent ones per block.  The
   byte-at-a-time loop's latency chain is what dominates loading: the CRC
   runs over the whole file, and the mmap path does nothing else that is
   O(bytes).  Built when the module is initialised, not lazily: two
   domains forcing one lazy value at once is an error in OCaml 5, and
   the server loads snapshots on two worker domains. *)
let crc_table =
  let t = Array.make_matrix 8 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(0).(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let p = t.(k - 1).(n) in
      t.(k).(n) <- (p lsr 8) lxor t.(0).(p land 0xFF)
    done
  done;
  t

(* the unsigned 32-bit little-endian word at [i] *)
let[@inline] word32 s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

(* No closure in the loop: it runs over every byte of a file at open
   and must allocate nothing.  A block of 8 bytes is two word loads. *)
let crc32_update crc s pos len =
  let t = crc_table in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 8 do
    let at = !i in
    let x = !c lxor word32 s at and y = word32 s (at + 4) in
    c :=
      Array.unsafe_get t7 (x land 0xFF)
      lxor Array.unsafe_get t6 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 (x lsr 24)
      lxor Array.unsafe_get t3 (y land 0xFF)
      lxor Array.unsafe_get t2 ((y lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((y lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 (y lsr 24);
    i := at + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t0 ((!c lxor Char.code (String.unsafe_get s !i)) land 0xFF)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let checksum s = Int64.of_int (crc32_update 0 s 0 (String.length s))

(* ---------- writing ---------- *)

(* The file is streamed through one reused buffer, with a running CRC:
   every section's length is known before the first byte goes out, so
   the header and the offset indexes are written in place, never
   patched, and the whole file is never held in memory.  The bulk of a
   file goes through the buffer a buffer at a time: an int column fills
   as many 8-byte slots as the buffer has left, padding is one fill, a
   pool's value bytes are blitted ({!Props.output}), and the CRC reads
   32-bit words. *)
type out = { dw : Durable.t; buf : Bytes.t; mutable len : int; mutable crc : int; mutable at : int }

let emit o b len =
  o.crc <- crc32_update o.crc (Bytes.unsafe_to_string b) 0 len;
  Durable.write_bytes o.dw b 0 len;
  o.at <- o.at + len

let flush o =
  emit o o.buf o.len;
  o.len <- 0

let room o n = if o.len + n > Bytes.length o.buf then flush o

let add_i64 o v =
  room o 8;
  Bytes.set_int64_le o.buf o.len (Int64.of_int v);
  o.len <- o.len + 8

let add_string o s =
  let pos = ref 0 in
  while !pos < String.length s do
    room o 1;
    let k = min (String.length s - !pos) (Bytes.length o.buf - o.len) in
    Bytes.blit_string s !pos o.buf o.len k;
    o.len <- o.len + k;
    pos := !pos + k
  done

(* zeros up to absolute file position [pos] *)
let pad_to o pos =
  while o.at + o.len < pos do
    room o 1;
    let k = min (pos - (o.at + o.len)) (Bytes.length o.buf - o.len) in
    Bytes.fill o.buf o.len k '\000';
    o.len <- o.len + k
  done

let add_ints o (a : Snapshot.ints) =
  let n = Bigarray.Array1.dim a and i = ref 0 in
  while !i < n do
    room o 8;
    let k = min (n - !i) ((Bytes.length o.buf - o.len) / 8) in
    let buf = o.buf and at = o.len and from = !i in
    for j = 0 to k - 1 do
      Bytes.set_int64_le buf (at + (8 * j)) (Int64.of_int (Bigarray.Array1.unsafe_get a (from + j)))
    done;
    o.len <- at + (8 * k);
    i := from + k
  done

let align8 x = (x + 7) land lnot 7

let write st (snap : Snapshot.t) path =
  let n = snap.Snapshot.n and m = snap.Snapshot.m in
  let nsyms = Symtab.size st in
  let int_sections =
    [|
      snap.Snapshot.node_id; snap.Snapshot.edge_id; snap.Snapshot.node_label;
      snap.Snapshot.edge_label; snap.Snapshot.edge_src; snap.Snapshot.edge_tgt;
      snap.Snapshot.out_start; snap.Snapshot.out_adj; snap.Snapshot.in_start;
      snap.Snapshot.in_adj;
    |]
  in
  let pools = [| snap.Snapshot.node_props; snap.Snapshot.edge_props |] in
  let sym_bytes = ref 0 in
  for id = 0 to nsyms - 1 do
    sym_bytes := !sym_bytes + 8 + String.length (Symtab.name st id)
  done;
  (* the layout: every section starts 8-byte aligned *)
  let lengths =
    Array.concat
      [
        [| !sym_bytes |];
        Array.map (fun a -> 8 * Bigarray.Array1.dim a) int_sections;
        [| 8 * (n + 1); 8 * (m + 1) |];
        Array.map Props.size pools;
      ]
  in
  let offsets = Array.make n_sections 0 in
  let pos = ref header_size in
  Array.iteri
    (fun k len ->
      offsets.(k) <- !pos;
      pos := align8 (!pos + len))
    lengths;
  let total = !pos + 8 in
  (* Durable temp+fsync+rename: a crash at any point (the matrix test
     kills the process at every Durable crash point) leaves [path]
     either absent, its previous content, or fully valid. *)
  match Durable.create path with
  | exception Unix.Unix_error (e, _, _) ->
    err "IO001" "cannot write snapshot %s: %s" path (Unix.error_message e)
  | dw -> (
    let o = { dw; buf = Bytes.create 65536; len = 0; crc = 0; at = 0 } in
    match
      add_string o magic;
      List.iter (add_i64 o) [ format_version; n; m; nsyms; total ];
      Array.iter (add_i64 o) offsets;
      for id = 0 to nsyms - 1 do
        let name = Symtab.name st id in
        add_i64 o (String.length name);
        add_string o name
      done;
      Array.iteri
        (fun k a ->
          pad_to o offsets.(1 + k);
          add_ints o a)
        int_sections;
      Array.iteri
        (fun k pool ->
          pad_to o offsets.(11 + k);
          for i = 0 to Props.count pool do
            add_i64 o (offsets.(13 + k) + Props.offset pool i)
          done)
        pools;
      Array.iteri
        (fun k pool ->
          pad_to o offsets.(13 + k);
          flush o;
          Props.output pool (emit o))
        pools;
      pad_to o (total - 8);
      flush o;
      add_i64 o o.crc;
      flush o;
      Durable.commit dw
    with
    | () -> Ok ()
    | exception e ->
      Durable.abort dw;
      (match e with
      | Sys_error msg -> err "IO001" "cannot write snapshot %s: %s" path msg
      | Unix.Unix_error (e, _, _) ->
        err "IO001" "cannot write snapshot %s: %s" path (Unix.error_message e)
      | e -> raise e))

(* ---------- reading ---------- *)

(* A cursor over fully-read header / symtab bytes.  The int columns and
   the property pools are not read through this — they are mmapped. *)
type cursor = { data : string; mutable pos : int }

exception Malformed of string

let need cur len =
  if cur.pos + len > String.length cur.data then
    raise (Malformed "unexpected end of section")

let read_i64 cur =
  need cur 8;
  let v = String.get_int64_le cur.data cur.pos in
  cur.pos <- cur.pos + 8;
  let n = Int64.to_int v in
  if Int64.of_int n <> v then raise (Malformed "integer out of native range");
  n

let read_len cur what =
  let n = read_i64 cur in
  if n < 0 || n > String.length cur.data - cur.pos then
    raise (Malformed (Printf.sprintf "bad %s length %d" what n));
  n

let read_string_pfx cur =
  let len = read_len cur "string" in
  let s = String.sub cur.data cur.pos len in
  cur.pos <- cur.pos + len;
  s

let read_header ic path =
  let hdr = Bytes.create header_size in
  (try Retry.really_input ic hdr 0 header_size
   with End_of_file -> raise (Malformed "file shorter than header"));
  let hdr = Bytes.unsafe_to_string hdr in
  if String.sub hdr 0 8 <> magic then
    raise (Malformed (Printf.sprintf "%s is not a snapshot file (bad magic)" path));
  let cur = { data = hdr; pos = 8 } in
  let version = read_i64 cur in
  if version <> format_version then
    raise
      (Malformed
         (Printf.sprintf "unsupported snapshot format version %d (this build reads %d)"
            version format_version));
  let n = read_i64 cur in
  let m = read_i64 cur in
  let nsyms = read_i64 cur in
  let total = read_i64 cur in
  if n < 0 || m < 0 || nsyms < 0 then raise (Malformed "negative count in header");
  let actual = in_channel_length ic in
  if total <> actual then
    raise (Malformed (Printf.sprintf "header declares %d bytes, file has %d" total actual));
  let offsets = Array.init n_sections (fun _ -> read_i64 cur) in
  Array.iteri
    (fun k off ->
      if off < header_size || off > total - 8 || off land 7 <> 0 then
        raise (Malformed (Printf.sprintf "section %d offset %d out of bounds" k off));
      if k > 0 && off < offsets.(k - 1) then
        raise (Malformed (Printf.sprintf "section %d starts before section %d" k (k - 1))))
    offsets;
  (* Every count must fit the bytes of its section before anything is
     sized by it: a symbol takes at least its 8-byte length prefix, an
     int column 8 bytes per entry. *)
  let bytes k = (if k + 1 < n_sections then offsets.(k + 1) else total - 8) - offsets.(k) in
  if nsyms > bytes 0 / 8 then
    raise (Malformed (Printf.sprintf "symbol count %d exceeds the symbol section" nsyms));
  List.iter
    (fun (k, len) ->
      if bytes k / 8 < len then
        raise (Malformed (Printf.sprintf "section %d too short for %d ints" k len)))
    [ (1, n); (2, m); (3, n); (4, m); (5, m); (6, m); (7, n + 1); (8, m); (9, n + 1); (10, m);
      (11, n + 1); (12, m + 1) ];
  (version, n, m, nsyms, total, offsets)

let verify_crc ic total =
  seek_in ic 0;
  let body_len = total - 8 in
  let chunk = Bytes.create 65536 in
  let crc = ref 0 in
  let remaining = ref body_len in
  while !remaining > 0 do
    let k = min !remaining (Bytes.length chunk) in
    Retry.really_input ic chunk 0 k;
    crc := crc32_update !crc (Bytes.unsafe_to_string chunk) 0 k;
    remaining := !remaining - k
  done;
  let tail = Bytes.create 8 in
  Retry.really_input ic tail 0 8;
  let stored = Bytes.get_int64_le tail 0 in
  if stored <> Int64.of_int !crc then
    Error
      { code = "IO005";
        message =
          Printf.sprintf "checksum mismatch: stored %Lx, computed %x — file is corrupt"
            stored !crc }
  else Ok ()

let read_section ic ~from ~until =
  seek_in ic from;
  let len = until - from in
  let b = Bytes.create len in
  Retry.really_input ic b 0 len;
  { data = Bytes.unsafe_to_string b; pos = 0 }

(* Map [len] elements of [kind] starting at byte [pos].  Zero-length
   maps are rejected by the OS, so hand back a fresh empty vector
   instead. *)
let map_section fd kind ~pos ~len =
  if len = 0 then Bigarray.Array1.create kind Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Fault.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout false [| len |])

(* Structural validation of the mmapped CSR: anything a kernel indexes
   with must be proven in range here, so a malformed (but checksummed)
   file fails with a diagnostic instead of a Bigarray bounds exception
   deep inside an engine. *)
let validate_structure ~n ~m ~(edge_src : Snapshot.ints) ~(edge_tgt : Snapshot.ints)
    ~(out_start : Snapshot.ints) ~(out_adj : Snapshot.ints) ~(in_start : Snapshot.ints)
    ~(in_adj : Snapshot.ints) =
  for j = 0 to m - 1 do
    if edge_src.{j} < 0 || edge_src.{j} >= n || edge_tgt.{j} < 0 || edge_tgt.{j} >= n
    then raise (Malformed (Printf.sprintf "edge %d endpoint out of range" j))
  done;
  let check_csr what (start : Snapshot.ints) (adj : Snapshot.ints) =
    if start.{0} <> 0 || start.{n} <> m then
      raise (Malformed (Printf.sprintf "%s CSR offsets do not cover the edge set" what));
    for i = 0 to n - 1 do
      if start.{i} > start.{i + 1} then
        raise (Malformed (Printf.sprintf "%s CSR offsets not monotone at node %d" what i))
    done;
    for k = 0 to m - 1 do
      if adj.{k} < 0 || adj.{k} >= m then
        raise (Malformed (Printf.sprintf "%s adjacency entry %d out of range" what k))
    done
  in
  check_csr "out" out_start out_adj;
  check_csr "in" in_start in_adj

(* The property offset indexes locate every vector, so prove them
   monotone and inside their section before a pool is mapped over it. *)
let validate_prop_offsets what (offs : Snapshot.ints) count ~base ~limit =
  if offs.{0} <> base then
    raise (Malformed (Printf.sprintf "%s offset index does not start at its section" what));
  for i = 0 to count - 1 do
    if offs.{i} > offs.{i + 1} then
      raise (Malformed (Printf.sprintf "%s offset index not monotone at %d" what i))
  done;
  if offs.{count} > limit then
    raise (Malformed (Printf.sprintf "%s offset index overruns its section" what))

(* ---------- opening ---------- *)

type mapped = Snapshot.t

let mapped_snapshot md = md
let close_mapped (_ : mapped) = ()

let open_mapped st path =
  match
    let ic = Retry.syscall (fun () -> Fault.open_in_bin path) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let _, n, m, nsyms, total, offsets = read_header ic path in
        match verify_crc ic total with
        | Error e -> Error e
        | Ok () ->
          (* symtab: intern stored names into the target table; [trans]
             translates writer ids to target ids from here on *)
          let sym_cur = read_section ic ~from:offsets.(0) ~until:offsets.(1) in
          let trans = Array.make nsyms 0 in
          let seen = Bytes.make (Symtab.size st + nsyms) '\000' in
          for id = 0 to nsyms - 1 do
            let name = read_string_pfx sym_cur in
            let sym = Symtab.intern st name in
            if Bytes.get seen sym <> '\000' then
              raise (Malformed (Printf.sprintf "symbol %S is stored twice" name));
            Bytes.set seen sym '\001';
            trans.(id) <- sym
          done;
          let remap id =
            if id < 0 || id >= nsyms then
              raise (Malformed (Printf.sprintf "symbol id %d out of range" id));
            trans.(id)
          in
          (* map the int columns and the property sections; the mappings
             outlive the fd, so the snapshot holds no descriptor *)
          let fd = Retry.syscall (fun () -> Fault.openfile path [ Unix.O_RDONLY ] 0) in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let sec k len = map_section fd Bigarray.int ~pos:offsets.(k) ~len in
              let node_id = sec 1 n and edge_id = sec 2 m in
              let node_label = sec 3 n and edge_label = sec 4 m in
              let edge_src = sec 5 m and edge_tgt = sec 6 m in
              let out_start = sec 7 (n + 1) and out_adj = sec 8 m in
              let in_start = sec 9 (n + 1) and in_adj = sec 10 m in
              let node_off = sec 11 (n + 1) and edge_off = sec 12 (m + 1) in
              validate_structure ~n ~m ~edge_src ~edge_tgt ~out_start ~out_adj
                ~in_start ~in_adj;
              validate_prop_offsets "node property" node_off n ~base:offsets.(13)
                ~limit:offsets.(14);
              validate_prop_offsets "edge property" edge_off m ~base:offsets.(14)
                ~limit:(total - 8);
              let pool k (off : Snapshot.ints) count =
                let base = offsets.(k) in
                let data = map_section fd Bigarray.char ~pos:base ~len:(off.{count} - base) in
                match Props.of_section data off ~base ~nsyms trans with
                | Ok pool -> pool
                | Error msg -> raise (Malformed msg)
              in
              let node_props = pool 13 node_off n in
              let edge_props = pool 14 edge_off m in
              (* label columns carry writer ids: rewrite them through the
                 remap into fresh (non-mapped) vectors.  Remapping is
                 injective, so equal-label runs inside each CSR segment
                 stay contiguous and no re-sort is needed. *)
              let node_label = Snapshot.remap_labels remap node_label in
              let edge_label = Snapshot.remap_labels remap edge_label in
              Ok
                {
                  Snapshot.n;
                  m;
                  node_id;
                  edge_id;
                  node_label;
                  edge_label;
                  edge_src;
                  edge_tgt;
                  node_props;
                  edge_props;
                  out_start;
                  out_adj;
                  in_start;
                  in_adj;
                }))
  with
  | result -> result
  | exception Sys_error msg -> err "IO001" "cannot read snapshot %s: %s" path msg
  | exception Malformed msg -> err "IO004" "malformed snapshot %s: %s" path msg
  | exception End_of_file -> err "IO004" "malformed snapshot %s: unexpected end of file" path
  | exception Unix.Unix_error (e, fn, _) ->
    (* device-level failure (EIO on a faulted page, mmap refusal, ...):
       a different repair story than IO001's "file unreadable", so it
       gets its own code *)
    err "IO006" "I/O failure opening snapshot %s: %s failed: %s" path fn
      (Unix.error_message e)

let load = open_mapped

let info path =
  match
    let ic = Retry.syscall (fun () -> Fault.open_in_bin path) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let version, n, m, nsyms, total, _ = read_header ic path in
        match verify_crc ic total with
        | Error e -> Error e
        | Ok () ->
          Ok { version; nodes = n; edges = m; symbols = nsyms; bytes = total })
  with
  | result -> result
  | exception Sys_error msg -> err "IO001" "cannot read snapshot %s: %s" path msg
  | exception Malformed msg -> err "IO004" "malformed snapshot %s: %s" path msg
  | exception End_of_file -> err "IO004" "malformed snapshot %s: unexpected end of file" path
  | exception Unix.Unix_error (e, fn, _) ->
    err "IO006" "I/O failure reading snapshot %s: %s failed: %s" path fn
      (Unix.error_message e)
