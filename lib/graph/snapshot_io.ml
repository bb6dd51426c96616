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
   Property sections are per-element vectors of (key id, tagged value).
   The twelve integer sections are the raw native-int columns; on a
   64-bit little-endian host they are byte-compatible with the mmapped
   view, so [load] never copies them through the heap.

   Version 2 adds the two property offset indexes: [node_prop_off] is
   n+1 absolute byte positions, entry i the start of node i's vector
   inside the node_props section (entry n its end); [edge_prop_off] the
   same for edges.  They are what makes a snapshot shard-addressable:
   {!open_mapped} maps the int columns and the offset indexes but reads
   no property bytes at all, and {!load_node_props}/{!load_edge_props}
   then pull exactly one shard's byte range off disk — the streaming
   sharded validator never touches the other shards' pages.

   Symbol ids inside the file are the ids of the *writing* symtab.  The
   loader interns every stored name into the target table and rewrites
   label columns and property keys through the resulting old->new map —
   that is what makes a snapshot schema-independent (see the .mli). *)

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
   O(bytes). *)
let crc_table =
  lazy
    (let t = Array.make_matrix 8 256 0 in
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
     t)

let crc32_update crc s pos len =
  let t = Lazy.force crc_table in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 8 do
    let b k = Char.code (String.unsafe_get s (!i + k)) in
    let x = !c lxor (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)) in
    c :=
      Array.unsafe_get t7 (x land 0xFF)
      lxor Array.unsafe_get t6 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 ((x lsr 24) land 0xFF)
      lxor Array.unsafe_get t3 (b 4)
      lxor Array.unsafe_get t2 (b 5)
      lxor Array.unsafe_get t1 (b 6)
      lxor Array.unsafe_get t0 (b 7);
    i := !i + 8
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

let add_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let add_string_pfx buf s =
  add_i64 buf (String.length s);
  Buffer.add_string buf s

let pad_to_8 buf =
  while Buffer.length buf land 7 <> 0 do
    Buffer.add_char buf '\000'
  done

let add_ints buf (a : Snapshot.ints) =
  for i = 0 to Bigarray.Array1.dim a - 1 do
    add_i64 buf a.{i}
  done

let rec add_value buf = function
  | Value.Int i ->
    Buffer.add_char buf 'i';
    add_i64 buf i
  | Value.Float f ->
    Buffer.add_char buf 'f';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.String s ->
    Buffer.add_char buf 's';
    add_string_pfx buf s
  | Value.Id s ->
    Buffer.add_char buf 'd';
    add_string_pfx buf s
  | Value.Enum s ->
    Buffer.add_char buf 'e';
    add_string_pfx buf s
  | Value.Bool b ->
    Buffer.add_char buf 'b';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Value.List vs ->
    Buffer.add_char buf 'l';
    add_i64 buf (List.length vs);
    List.iter (add_value buf) vs

(* Write the vectors and record each one's absolute start position into
   [offs] (length count+1; the last entry is the end of the section's
   payload) — the offset index is patched into its placeholder section
   once the whole body is in bytes. *)
let add_props buf (offs : int array) (props : (int * Value.t) array array) =
  Array.iteri
    (fun i vec ->
      offs.(i) <- Buffer.length buf;
      add_i64 buf (Array.length vec);
      Array.iter
        (fun (k, v) ->
          add_i64 buf k;
          add_value buf v)
        vec)
    props;
  offs.(Array.length props) <- Buffer.length buf

let write st (snap : Snapshot.t) path =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf magic;
  add_i64 buf format_version;
  add_i64 buf snap.Snapshot.n;
  add_i64 buf snap.Snapshot.m;
  let nsyms = Symtab.size st in
  add_i64 buf nsyms;
  add_i64 buf 0 (* total size, patched below *);
  for _ = 1 to n_sections do
    add_i64 buf 0 (* section offsets, patched below *)
  done;
  assert (Buffer.length buf = header_size);
  let offsets = Array.make n_sections 0 in
  let section k fill =
    pad_to_8 buf;
    offsets.(k) <- Buffer.length buf;
    fill ()
  in
  section 0 (fun () ->
      for id = 0 to nsyms - 1 do
        add_string_pfx buf (Symtab.name st id)
      done);
  let int_sections =
    [|
      snap.Snapshot.node_id; snap.Snapshot.edge_id; snap.Snapshot.node_label;
      snap.Snapshot.edge_label; snap.Snapshot.edge_src; snap.Snapshot.edge_tgt;
      snap.Snapshot.out_start; snap.Snapshot.out_adj; snap.Snapshot.in_start;
      snap.Snapshot.in_adj;
    |]
  in
  Array.iteri (fun k a -> section (1 + k) (fun () -> add_ints buf a)) int_sections;
  (* placeholder offset indexes; the real positions exist only after the
     property sections are written, so they are patched into the body *)
  section 11 (fun () ->
      for _ = 0 to snap.Snapshot.n do
        add_i64 buf 0
      done);
  section 12 (fun () ->
      for _ = 0 to snap.Snapshot.m do
        add_i64 buf 0
      done);
  let noffs = Array.make (snap.Snapshot.n + 1) 0 in
  let eoffs = Array.make (snap.Snapshot.m + 1) 0 in
  section 13 (fun () -> add_props buf noffs snap.Snapshot.node_props);
  section 14 (fun () -> add_props buf eoffs snap.Snapshot.edge_props);
  pad_to_8 buf;
  let total = Buffer.length buf + 8 in
  let body = Buffer.to_bytes buf in
  Bytes.set_int64_le body 40 (Int64.of_int total);
  Array.iteri (fun k off -> Bytes.set_int64_le body (48 + (8 * k)) (Int64.of_int off)) offsets;
  Array.iteri
    (fun i off -> Bytes.set_int64_le body (offsets.(11) + (8 * i)) (Int64.of_int off))
    noffs;
  Array.iteri
    (fun i off -> Bytes.set_int64_le body (offsets.(12) + (8 * i)) (Int64.of_int off))
    eoffs;
  let crc = crc32_update 0 (Bytes.unsafe_to_string body) 0 (Bytes.length body) in
  let tail = Bytes.create 8 in
  Bytes.set_int64_le tail 0 (Int64.of_int crc);
  (* Durable temp+fsync+rename: a crash at any point (the matrix test
     kills the process at every Durable crash point) leaves [path]
     either absent, its previous content, or fully valid. *)
  try
    Durable.write_file path
      [ Bytes.unsafe_to_string body; Bytes.unsafe_to_string tail ];
    Ok ()
  with
  | Sys_error msg -> err "IO001" "cannot write snapshot %s: %s" path msg
  | Unix.Unix_error (e, _, _) ->
    err "IO001" "cannot write snapshot %s: %s" path (Unix.error_message e)

(* ---------- reading ---------- *)

(* A cursor over fully-read header / symtab / property bytes.  The int
   sections are not read through this — they are mmapped. *)
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

let rec read_value cur =
  need cur 1;
  let tag = cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  match tag with
  | 'i' -> Value.Int (read_i64 cur)
  | 'f' ->
    need cur 8;
    let bits = String.get_int64_le cur.data cur.pos in
    cur.pos <- cur.pos + 8;
    Value.Float (Int64.float_of_bits bits)
  | 's' -> Value.String (read_string_pfx cur)
  | 'd' -> Value.Id (read_string_pfx cur)
  | 'e' -> Value.Enum (read_string_pfx cur)
  | 'b' ->
    need cur 1;
    let b = cur.data.[cur.pos] in
    cur.pos <- cur.pos + 1;
    Value.Bool (b <> '\000')
  | 'l' ->
    let count = read_len cur "list" in
    Value.List (List.init count (fun _ -> read_value cur))
  | c -> raise (Malformed (Printf.sprintf "unknown value tag %C" c))

(* [remap] translates a stored symbol id to the target symtab's id. *)
let read_vec cur remap =
  let len = read_len cur "property vector" in
  let vec =
    Array.init len (fun _ ->
        let k = read_i64 cur in
        let v = read_value cur in
        (remap k, v))
  in
  (* key order under the writer's ids need not survive the remap *)
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) vec;
  vec

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
        raise (Malformed (Printf.sprintf "section %d offset %d out of bounds" k off)))
    offsets;
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

(* Map [len] native ints starting at byte [pos].  Zero-length maps are
   rejected by the OS, so hand back a fresh empty vector instead. *)
let map_ints fd ~pos ~len =
  if len = 0 then Snapshot.ints_create 0
  else
    let g =
      Fault.map_file fd ~pos:(Int64.of_int pos) Bigarray.int Bigarray.c_layout false
        [| len |]
    in
    Bigarray.array1_of_genarray g

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

(* The property offset indexes are what load_node_props/load_edge_props
   seek by, so prove them monotone and inside their section here — one
   pass at open time instead of a bounds check per property read. *)
let validate_prop_offsets what (offs : Snapshot.ints) count ~base ~limit =
  if offs.{0} <> base then
    raise (Malformed (Printf.sprintf "%s offset index does not start at its section" what));
  for i = 0 to count - 1 do
    if offs.{i} > offs.{i + 1} then
      raise (Malformed (Printf.sprintf "%s offset index not monotone at %d" what i))
  done;
  if offs.{count} > limit then
    raise (Malformed (Printf.sprintf "%s offset index overruns its section" what))

(* ---------- the mapped handle ---------- *)

type mapped = {
  m_path : string;
  m_ic : in_channel; (* kept open for property reads; close_mapped closes it *)
  m_snap : Snapshot.t; (* int columns mapped; property slots start empty *)
  m_trans : int array;
  m_nsyms : int;
  m_node_off : Snapshot.ints;
  m_edge_off : Snapshot.ints;
}

let mapped_snapshot md = md.m_snap
let close_mapped md = close_in_noerr md.m_ic

let remap_of md id =
  if id < 0 || id >= md.m_nsyms then
    raise (Malformed (Printf.sprintf "symbol id %d out of range" id));
  md.m_trans.(id)

let open_mapped st path =
  match
    let ic = Retry.syscall (fun () -> Fault.open_in_bin path) in
    let ok = ref false in
    Fun.protect
      ~finally:(fun () -> if not !ok then close_in_noerr ic)
      (fun () ->
        let _, n, m, nsyms, total, offsets = read_header ic path in
        match verify_crc ic total with
        | Error e -> Error e
        | Ok () ->
          (* symtab: intern stored names into the target table; [trans]
             translates writer ids to target ids from here on *)
          let sym_cur = read_section ic ~from:offsets.(0) ~until:offsets.(1) in
          let trans = Array.make (max 1 nsyms) 0 in
          for id = 0 to nsyms - 1 do
            trans.(id) <- Symtab.intern st (read_string_pfx sym_cur)
          done;
          let remap id =
            if id < 0 || id >= nsyms then
              raise (Malformed (Printf.sprintf "symbol id %d out of range" id));
            trans.(id)
          in
          let expect k len =
            let have = (offsets.(k + 1) - offsets.(k)) / 8 in
            if have < len then
              raise (Malformed (Printf.sprintf "section %d too short for %d ints" k len))
          in
          expect 1 n;
          expect 2 m;
          expect 3 n;
          expect 4 m;
          expect 5 m;
          expect 6 m;
          expect 7 (n + 1);
          expect 8 m;
          expect 9 (n + 1);
          expect 10 m;
          expect 11 (n + 1);
          expect 12 (m + 1);
          (* mmap the int columns; the mapping outlives the fd *)
          let fd = Retry.syscall (fun () -> Fault.openfile path [ Unix.O_RDONLY ] 0) in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let sec k len = map_ints fd ~pos:offsets.(k) ~len in
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
              (* label columns carry writer ids: rewrite them through the
                 remap into fresh (non-mapped) vectors.  Remapping is
                 injective, so equal-label runs inside each CSR segment
                 stay contiguous and no re-sort is needed. *)
              let node_label = Snapshot.remap_labels remap node_label in
              let edge_label = Snapshot.remap_labels remap edge_label in
              ok := true;
              Ok
                {
                  m_path = path;
                  m_ic = ic;
                  m_trans = trans;
                  m_nsyms = nsyms;
                  m_node_off = node_off;
                  m_edge_off = edge_off;
                  m_snap =
                    {
                      Snapshot.n;
                      m;
                      node_id;
                      edge_id;
                      node_label;
                      edge_label;
                      edge_src;
                      edge_tgt;
                      node_props = Array.make n [||];
                      edge_props = Array.make m [||];
                      out_start;
                      out_adj;
                      in_start;
                      in_adj;
                    };
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

(* [section] names what was being pulled off disk ("node properties",
   "edge properties") so an IO006 from a faulted page read says which
   part of the snapshot is unreadable, not just which file. *)
let wrap_prop_errors md ~section f =
  match f () with
  | () -> Ok ()
  | exception Sys_error msg -> err "IO001" "cannot read snapshot %s: %s" md.m_path msg
  | exception Malformed msg -> err "IO004" "malformed snapshot %s: %s" md.m_path msg
  | exception End_of_file ->
    err "IO004" "malformed snapshot %s: unexpected end of file" md.m_path
  | exception Unix.Unix_error (e, fn, _) ->
    err "IO006" "I/O failure reading %s of snapshot %s: %s failed: %s" section
      md.m_path fn (Unix.error_message e)

(* Parse the vectors of [offs]-indexed elements [parse_at] lists out of
   one contiguous byte range [base, stop) read in a single request. *)
let read_range md ~base ~stop =
  seek_in md.m_ic base;
  let b = Bytes.create (stop - base) in
  Retry.really_input md.m_ic b 0 (stop - base);
  { data = Bytes.unsafe_to_string b; pos = 0 }

let parse_at md cur ~base (offs : Snapshot.ints) i =
  cur.pos <- offs.{i} - base;
  let vec = read_vec cur (remap_of md) in
  if cur.pos <> offs.{i + 1} - base then
    raise (Malformed (Printf.sprintf "property vector %d does not end at its offset" i));
  vec

let load_node_props md ~lo ~hi =
  wrap_prop_errors md ~section:"node properties" (fun () ->
      if lo < 0 || hi > md.m_snap.Snapshot.n || lo > hi then
        invalid_arg "Snapshot_io.load_node_props: range out of bounds";
      if hi > lo then begin
        let base = md.m_node_off.{lo} in
        let cur = read_range md ~base ~stop:md.m_node_off.{hi} in
        for i = lo to hi - 1 do
          md.m_snap.Snapshot.node_props.(i) <- parse_at md cur ~base md.m_node_off i
        done
      end)

(* Coalesced reads: consecutive requested edges whose byte ranges are
   within [gap] of each other share one read request, so a shard's owned
   edges (clustered by construction) cost a few sequential reads instead
   of one seek per edge. *)
let coalesce_gap = 4096

let load_edge_props md (edges : int array) =
  wrap_prop_errors md ~section:"edge properties" (fun () ->
      let len = Array.length edges in
      Array.iteri
        (fun x e ->
          if e < 0 || e >= md.m_snap.Snapshot.m then
            invalid_arg "Snapshot_io.load_edge_props: edge index out of bounds";
          if x > 0 && edges.(x - 1) > e then
            invalid_arg "Snapshot_io.load_edge_props: edge indexes must be ascending")
        edges;
      let x = ref 0 in
      while !x < len do
        let y = ref (!x + 1) in
        while
          !y < len
          && md.m_edge_off.{edges.(!y)} - md.m_edge_off.{edges.(!y - 1) + 1}
             <= coalesce_gap
        do
          incr y
        done;
        let base = md.m_edge_off.{edges.(!x)} in
        let cur = read_range md ~base ~stop:md.m_edge_off.{edges.(!y - 1) + 1} in
        for z = !x to !y - 1 do
          let e = edges.(z) in
          md.m_snap.Snapshot.edge_props.(e) <- parse_at md cur ~base md.m_edge_off e
        done;
        x := !y
      done)

let drop_node_props md ~lo ~hi =
  for i = lo to hi - 1 do
    md.m_snap.Snapshot.node_props.(i) <- [||]
  done

let drop_edge_props md (edges : int array) =
  Array.iter (fun e -> md.m_snap.Snapshot.edge_props.(e) <- [||]) edges

(* ---------- full load / info ---------- *)

let load st path =
  match open_mapped st path with
  | Error e -> Error e
  | Ok md ->
    Fun.protect
      ~finally:(fun () -> close_mapped md)
      (fun () ->
        let n = md.m_snap.Snapshot.n and m = md.m_snap.Snapshot.m in
        match load_node_props md ~lo:0 ~hi:n with
        | Error e -> Error e
        | Ok () -> (
          match load_edge_props md (Array.init m Fun.id) with
          | Error e -> Error e
          | Ok () -> Ok md.m_snap))

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
