(* Test-only oracles: the straightforward implementations that the
   library's hot paths replaced, kept verbatim so that qcheck properties
   can prove the rewrites byte-identical. *)

open Difftrace_util
open Difftrace_trace
module Linkage = Difftrace_cluster.Linkage

(* NLR with a bounds-checked [Vec] stack, polymorphic element equality
   and an exception per changed step. *)
module Nlr = struct
  open Difftrace_nlr.Nlr

  let elem_equal (a : elem) (b : elem) = a = b

  let reduce_step ~table ~k ~repeats stack =
    let len = Vec.length stack in
    let exception Changed in
    try
      for b = 1 to k do
        (* extension *)
        (if len >= b + 1 then
           match Vec.peek stack b with
           | Loop { body; count } ->
             let bd = Loop_table.body table body in
             if
               Array.length bd = b
               && (let ok = ref true in
                   for i = 0 to b - 1 do
                     if not (elem_equal bd.(i) (Vec.peek stack (b - 1 - i))) then
                       ok := false
                   done;
                   !ok)
             then begin
               Vec.truncate stack (len - b - 1);
               Vec.push stack (Loop { body; count = count + 1 });
               raise Changed
             end
           | Sym _ -> ());
        (* creation *)
        if len >= repeats * b then begin
          let window w i = Vec.get stack (len - ((w + 1) * b) + i) in
          let all_equal = ref true in
          for w = 1 to repeats - 1 do
            for i = 0 to b - 1 do
              if not (elem_equal (window 0 i) (window w i)) then all_equal := false
            done
          done;
          if !all_equal then begin
            let body = Array.init b (fun i -> window 0 i) in
            let id = Loop_table.intern table body in
            Vec.truncate stack (len - (repeats * b));
            Vec.push stack (Loop { body = id; count = repeats });
            raise Changed
          end
        end
      done;
      false
    with Changed -> true

  let of_ids ~table ?(k = 10) ?(repeats = 2) ids =
    if k < 1 then invalid_arg "Nlr.of_ids: k must be >= 1";
    if repeats < 2 then invalid_arg "Nlr.of_ids: repeats must be >= 2";
    let stack = Vec.with_capacity (Array.length ids) in
    Array.iter
      (fun id ->
        Vec.push stack (Sym id);
        while reduce_step ~table ~k ~repeats stack do
          ()
        done)
      ids;
    { elems = Vec.to_array stack; input_length = Array.length ids }
end

(* B-score over a dense kx*ky contingency matrix per cut level. *)
module Bscore = struct
  let bk_of_assignments x y =
    let n = Array.length x in
    if Array.length y <> n then invalid_arg "Bscore: leaf count mismatch";
    if n = 0 then invalid_arg "Bscore: empty clusterings";
    let kx = 1 + Array.fold_left max 0 x and ky = 1 + Array.fold_left max 0 y in
    let mm = Array.make_matrix kx ky 0 in
    for i = 0 to n - 1 do
      mm.(x.(i)).(y.(i)) <- mm.(x.(i)).(y.(i)) + 1
    done;
    let tk = ref 0 and pk = ref 0 and qk = ref 0 in
    for a = 0 to kx - 1 do
      let row = ref 0 in
      for b = 0 to ky - 1 do
        tk := !tk + (mm.(a).(b) * mm.(a).(b));
        row := !row + mm.(a).(b)
      done;
      pk := !pk + (!row * !row)
    done;
    for b = 0 to ky - 1 do
      let col = ref 0 in
      for a = 0 to kx - 1 do
        col := !col + mm.(a).(b)
      done;
      qk := !qk + (!col * !col)
    done;
    let tk = !tk - n and pk = !pk - n and qk = !qk - n in
    if pk = 0 || qk = 0 then 1.0
    else float_of_int tk /. sqrt (float_of_int pk *. float_of_int qk)

  let bk a b ~k =
    if a.Linkage.n <> b.Linkage.n then invalid_arg "Bscore.bk: leaf count mismatch";
    bk_of_assignments (Linkage.cut_k a k) (Linkage.cut_k b k)

  let series a b =
    let n = a.Linkage.n in
    List.init (max 0 (n - 2)) (fun i ->
        let k = i + 2 in
        (k, bk a b ~k))

  let score a b =
    match series a b with
    | [] -> 1.0
    | s -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 s /. float_of_int (List.length s)
end

(* Call-ID remapping that interns the callee's name on every event. *)
let remap_calls ~shared ~own (tr : Trace.t) =
  Array.map
    (fun id -> Symtab.intern shared (Symtab.name own id))
    (Trace.call_ids tr)

(* The memo key built from one [string_of_int] string per ID. *)
let memo_key ~ids ~k ~repeats =
  let buf = Buffer.create ((4 * Array.length ids) + 16) in
  Buffer.add_string buf (string_of_int k);
  Buffer.add_char buf ';';
  Buffer.add_string buf (string_of_int repeats);
  Array.iter
    (fun id ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (string_of_int id))
    ids;
  Digest.string (Buffer.contents buf)

(* Event decoding that allocates a fresh block per event. *)
module Event = struct
  include Event

  let decode n = if n land 1 = 0 then Call (n lsr 1) else Return (n lsr 1)
end

(* LEB128 with a closure per call: [write]'s and [read]'s inner [go]
   capture their buffer. *)
module Varint = struct
  let write buf n =
    if n < 0 then invalid_arg "Varint.write: negative";
    let rec go n =
      if n < 0x80 then Buffer.add_char buf (Char.chr n)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n

  let read s pos =
    let len = String.length s in
    let rec go pos shift acc =
      if pos >= len then invalid_arg "Varint.read: truncated input";
      (* [write] never emits more than 9 bytes (shift 56 holds bits
         56..62 of a 63-bit int); past that — or once a continuation run
         would set the sign bit — [lsl] silently wraps, so reject. *)
      if shift > 56 then invalid_arg "Varint.read: overflow";
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if acc < 0 then invalid_arg "Varint.read: overflow";
      if b land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
    in
    go pos 0 0
end

(* LZW with a polymorphic [(int * char) Hashtbl] dictionary and a
   decoder that boxes one [(prefix, last byte)] tuple per phrase and
   walks every prefix chain twice. *)
module Lzw = struct
  (* Classic LZW. Codes 0..255 denote single bytes; code 256 is the
     end-of-stream marker; fresh phrases get codes from 257 up. The
     current phrase is represented by its dictionary code, so the encoder
     state is O(1) per step plus the dictionary. *)

  let eos_code = 256
  let first_code = 257

  type encoder = {
    dict : (int * char, int) Hashtbl.t;
    mutable next_code : int;
    mutable current : int; (* code of the pending phrase; -1 = none *)
    out : Buffer.t;
    mutable fed : int;
  }

  let encoder () =
    { dict = Hashtbl.create 4096;
      next_code = first_code;
      current = -1;
      out = Buffer.create 256;
      fed = 0 }

  let feed e c =
    e.fed <- e.fed + 1;
    if e.current < 0 then e.current <- Char.code c
    else
      match Hashtbl.find_opt e.dict (e.current, c) with
      | Some code -> e.current <- code
      | None ->
        Varint.write e.out e.current;
        Hashtbl.add e.dict (e.current, c) e.next_code;
        e.next_code <- e.next_code + 1;
        e.current <- Char.code c

  let feed_string e s = String.iter (feed e) s

  let finish e =
    if e.current >= 0 then begin
      Varint.write e.out e.current;
      e.current <- -1
    end;
    Varint.write e.out eos_code;
    Buffer.contents e.out

  let output_size e = Buffer.length e.out
  let input_size e = e.fed

  let compress s =
    let e = encoder () in
    feed_string e s;
    finish e

  (* Decoder: phrases are stored as (prefix_code, last_byte) pairs; a
     phrase is materialized by walking prefixes. Handles the KwKwK case
     (a code one past the dictionary end refers to the phrase currently
     being defined). The decoder is incremental: compressed bytes arrive
     in arbitrary slices (a varint code may straddle two feeds), so the
     archive layer can stream a trace file chunk by chunk without ever
     materializing it as one string. *)

  type decoder = {
    phrases : (int * char) Vec.t; (* phrases.(i) is code first_code+i *)
    dout : Buffer.t; (* decoded bytes not yet taken *)
    mutable prev : int; (* previous code; -1 = none yet *)
    mutable acc : int; (* partial varint accumulator *)
    mutable shift : int; (* nonzero while a varint straddles feeds *)
    mutable eos : bool; (* end-of-stream marker consumed *)
  }

  let decoder () =
    { phrases = Vec.create ();
      dout = Buffer.create 256;
      prev = -1;
      acc = 0;
      shift = 0;
      eos = false }

  let phrase_bytes d buf code =
    let rec go code =
      if code < 256 then Buffer.add_char buf (Char.chr code)
      else begin
        let prefix, last = Vec.get d.phrases (code - first_code) in
        go prefix;
        Buffer.add_char buf last
      end
    in
    go code

  let first_byte d code =
    let rec go code =
      if code < 256 then Char.chr code
      else
        let prefix, _ = Vec.get d.phrases (code - first_code) in
        go prefix
    in
    go code

  let decode_code d code =
    if code = eos_code then d.eos <- true
    else begin
      let valid_max = first_code + Vec.length d.phrases in
      if code > valid_max || code < 0 then invalid_arg "Lzw.decompress: bad code";
      (* the first code of a stream must be a literal: no phrase exists
         yet, and the KwKwK rule needs a previous code to lean on *)
      if d.prev < 0 && code >= first_code then
        invalid_arg "Lzw.decompress: bad code";
      if d.prev >= 0 then begin
        (* Define the phrase prev ++ first_byte(code); for the KwKwK
           case code = valid_max, whose first byte equals prev's. *)
        let last =
          if code = valid_max then first_byte d d.prev else first_byte d code
        in
        Vec.push d.phrases (d.prev, last)
      end;
      phrase_bytes d d.dout code;
      d.prev <- code
    end

  let decode_feed d s =
    String.iter
      (fun c ->
        if d.eos then
          invalid_arg "Lzw.decompress: trailing bytes after end-of-stream";
        let b = Char.code c in
        (* inline varint accumulation; codes are dictionary-bounded, so a
           run shifting past 56 bits can only be corruption *)
        if d.shift > 56 then invalid_arg "Lzw.decompress: bad code";
        d.acc <- d.acc lor ((b land 0x7f) lsl d.shift);
        if d.acc < 0 then invalid_arg "Lzw.decompress: bad code";
        if b land 0x80 = 0 then begin
          let code = d.acc in
          d.acc <- 0;
          d.shift <- 0;
          decode_code d code
        end
        else d.shift <- d.shift + 7)
      s

  (* [decode_take] drains the decoded bytes produced so far, so callers
     can consume output incrementally and keep the buffer bounded. *)
  let decode_take d =
    let s = Buffer.contents d.dout in
    Buffer.clear d.dout;
    s

  let decode_finished d = d.eos

  let decode_finish d =
    if not d.eos then invalid_arg "Lzw.decompress: missing end-of-stream";
    decode_take d

  let decompress s =
    if String.length s = 0 then ""
    else begin
      let d = decoder () in
      decode_feed d s;
      decode_finish d
    end
end

(* The streaming event decoder that iterates the drained string with a
   closure per byte and pushes one fresh event block into a [Vec]. *)
module Tracer = struct

  type stream = {
    lzw : Lzw.decoder;
    s_events : Event.t Vec.t;
    mutable s_acc : int; (* partial event varint *)
    mutable s_shift : int;
    mutable s_partial : bool; (* an event varint is in flight *)
    mutable s_bytes : int; (* compressed bytes fed so far *)
  }

  let stream () =
    { lzw = Lzw.decoder ();
      s_events = Vec.create ();
      s_acc = 0;
      s_shift = 0;
      s_partial = false;
      s_bytes = 0 }

  let drain st =
    let raw = Lzw.decode_take st.lzw in
    String.iter
      (fun c ->
        let b = Char.code c in
        if st.s_shift > 56 then invalid_arg "Tracer.decode: event varint overflow";
        st.s_acc <- st.s_acc lor ((b land 0x7f) lsl st.s_shift);
        if st.s_acc < 0 then invalid_arg "Tracer.decode: event varint overflow";
        if b land 0x80 = 0 then begin
          Vec.push st.s_events (Event.decode st.s_acc);
          st.s_acc <- 0;
          st.s_shift <- 0;
          st.s_partial <- false
        end
        else begin
          st.s_shift <- st.s_shift + 7;
          st.s_partial <- true
        end)
      raw

  let stream_feed st data =
    st.s_bytes <- st.s_bytes + String.length data;
    Lzw.decode_feed st.lzw data;
    drain st

  let stream_events st = Vec.length st.s_events

  (* a zero-byte stream is a complete empty trace — the streaming analogue
     of [Lzw.decompress ""] = "" — not a missing end-of-stream marker *)
  let stream_complete st =
    drain st;
    st.s_bytes = 0 || (Lzw.decode_finished st.lzw && not st.s_partial)

  let stream_trace st ~pid ~tid ~truncated =
    Trace.make ~pid ~tid ~truncated (Vec.to_array st.s_events)

  let stream_finish st ~pid ~tid ~truncated =
    drain st;
    if st.s_bytes > 0 then ignore (Lzw.decode_finish st.lzw);
    if st.s_partial then invalid_arg "Tracer.decode: truncated event stream";
    stream_trace st ~pid ~tid ~truncated

  (* Salvage: keep every event that decoded cleanly, drop a trailing
     partial varint, and force the truncation flag — the archive's
     recovery path for damaged trace files. *)
  let stream_salvage st ~pid ~tid =
    (try drain st with Invalid_argument _ -> ());
    stream_trace st ~pid ~tid ~truncated:true
end

(* The archive read path over the oracle [Tracer] stream, with an
   unsized event vector (no presize from the manifest). *)
module Archive = struct
  open Difftrace_parlot.Archive

  let chunk_magic = "DTA2"
  let trace_file = trace_file
  let manifest_file = manifest_file

  type manifest = {
    m_version : int;
    m_symbols : string list;
    m_threads : (int * int * bool * int) list; (* pid, tid, truncated, len *)
  }

  exception Bad of string

  let crc_footer_len = String.length "crc 00000000\n"

  let parse_manifest text =
    let fail msg = raise (Bad msg) in
    let version, body =
      if String.length text >= 20 && String.sub text 0 20 = "difftrace-archive 1\n"
      then (1, text)
      else if
        String.length text >= 20 && String.sub text 0 20 = "difftrace-archive 2\n"
      then begin
        let n = String.length text in
        if n < 20 + crc_footer_len then fail "missing manifest checksum";
        let body = String.sub text 0 (n - crc_footer_len) in
        let footer = String.sub text (n - crc_footer_len) crc_footer_len in
        let crc =
          try Scanf.sscanf footer "crc %x" (fun c -> c)
          with _ -> fail "missing manifest checksum"
        in
        if Crc32.string body <> crc then fail "manifest checksum mismatch";
        (2, body)
      end
      else fail "bad magic"
    in
    match String.split_on_char '\n' body with
    | _magic :: rest ->
      let nsyms, rest =
        match rest with
        | l :: rest -> (
          try Scanf.sscanf l "symbols %d" (fun n -> (n, rest))
          with _ -> fail "missing symbols header")
        | [] -> fail "truncated manifest"
      in
      if nsyms < 0 then fail "missing symbols header";
      let rec read_syms n rest acc =
        if n = 0 then (List.rev acc, rest)
        else
          match rest with
          | l :: rest ->
            let name =
              try Scanf.sscanf l "%S" (fun s -> s) with _ -> fail "bad symbol"
            in
            read_syms (n - 1) rest (name :: acc)
          | [] -> fail "truncated symbols"
      in
      let symbols, rest = read_syms nsyms rest [] in
      let nthreads, rest =
        match rest with
        | l :: rest -> (
          try Scanf.sscanf l "threads %d" (fun n -> (n, rest))
          with _ -> fail "missing threads header")
        | [] -> fail "truncated manifest"
      in
      if nthreads < 0 then fail "missing threads header";
      let rec read_threads n rest acc =
        if n = 0 then List.rev acc
        else
          match rest with
          | l :: rest ->
            let pid, tid, status, len =
              try Scanf.sscanf l "thread %d %d %s %d" (fun a b c d -> (a, b, c, d))
              with _ -> fail "bad thread line"
            in
            let truncated =
              match status with
              | "truncated" -> true
              | "complete" -> false
              | _ -> fail "bad thread status"
            in
            read_threads (n - 1) rest ((pid, tid, truncated, len) :: acc)
          | [] -> fail "truncated thread list"
      in
      let threads = read_threads nthreads rest [] in
      { m_version = version; m_symbols = symbols; m_threads = threads }
    | [] -> fail "bad magic"

  (* ------------------------------------------------------------------ *)
  (* Reading one trace file                                              *)
  (* ------------------------------------------------------------------ *)

  (* Outcome of scanning one trace file: chunk accounting plus the
     decoder holding every event recovered before the first problem.
     [sc_consumed] is the file offset just past the last fully validated
     chunk — dropped bytes under salvage are measured from there. *)
  type scan = {
    sc_chunks : int;
    sc_bytes : int; (* validated payload bytes *)
    sc_consumed : int;
    sc_size : int;
    sc_issue : string option;
    sc_stream : Tracer.stream;
  }

  let read_block_size = 65536

  (* Shared by load and verify; IO errors (missing file) are reported as
     an issue, never an exception. *)
  let scan_trace ~version path =
    match open_in_bin path with
    | exception Sys_error m ->
      { sc_chunks = 0;
        sc_bytes = 0;
        sc_consumed = 0;
        sc_size = 0;
        sc_issue = Some ("cannot open trace file: " ^ m);
        sc_stream = Tracer.stream () }
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let size = in_channel_length ic in
          let st = Tracer.stream () in
          let chunks = ref 0 in
          let bytes = ref 0 in
          let consumed = ref 0 in
          let issue = ref None in
          let set_issue r = if !issue = None then issue := Some r in
          (match version with
          | 1 ->
            (* v1: a bare LZW stream; read in blocks, feed incrementally *)
            (try
               let buf = Bytes.create read_block_size in
               let rec go () =
                 let n = input ic buf 0 read_block_size in
                 if n > 0 then begin
                   Tracer.stream_feed st (Bytes.sub_string buf 0 n);
                   bytes := !bytes + n;
                   consumed := pos_in ic;
                   go ()
                 end
               in
               go ();
               if not (Tracer.stream_complete st) then
                 set_issue "unterminated event stream"
             with Invalid_argument m -> set_issue ("decode error: " ^ m))
          | _ ->
            let read_varint () =
              let rec go shift acc =
                if shift > 56 then failwith "bad chunk length";
                let b = input_byte ic in
                let acc = acc lor ((b land 0x7f) lsl shift) in
                if acc < 0 then failwith "bad chunk length";
                if b land 0x80 = 0 then acc else go (shift + 7) acc
              in
              go 0 0
            in
            (try
               let magic = really_input_string ic 4 in
               if magic <> chunk_magic then set_issue "bad trace file magic"
               else begin
                 let stream_crc = ref Crc32.init in
                 let rec loop () =
                   let len = read_varint () in
                   if len = 0 then begin
                     let expect = Crc32.of_le_bytes (really_input_string ic 4) 0 in
                     if Crc32.finish !stream_crc <> expect then begin
                       set_issue "whole-stream checksum mismatch"
                     end
                     else begin
                       consumed := pos_in ic;
                       if pos_in ic <> size then
                         set_issue "trailing garbage after terminator"
                       else if not (Tracer.stream_complete st) then
                         set_issue "unterminated event stream"
                     end
                   end
                   else if len > size - pos_in ic then failwith "truncated chunk"
                   else begin
                     let data = really_input_string ic len in
                     let expect = Crc32.of_le_bytes (really_input_string ic 4) 0 in
                     if Crc32.string data <> expect then begin
                       set_issue "chunk checksum mismatch"
                     end
                     else begin
                       incr chunks;
                       bytes := !bytes + len;
                       stream_crc := Crc32.update !stream_crc data ~pos:0 ~len;
                       match Tracer.stream_feed st data with
                       | () ->
                         consumed := pos_in ic;
                         loop ()
                       | exception Invalid_argument m ->
                         set_issue ("decode error: " ^ m)
                     end
                   end
                 in
                 loop ()
               end
             with
            | End_of_file -> set_issue "truncated chunk"
            | Failure m -> set_issue m));
          { sc_chunks = !chunks;
            sc_bytes = !bytes;
            sc_consumed = !consumed;
            sc_size = size;
            sc_issue = !issue;
            sc_stream = st })

  (* ------------------------------------------------------------------ *)
  (* Loading                                                             *)
  (* ------------------------------------------------------------------ *)

  let read_manifest dir =
    let path = manifest_file dir in
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error m ->
      Error { err_path = path; err_reason = "cannot read manifest: " ^ m }
    | text -> (
      match parse_manifest text with
      | m -> Ok m
      | exception Bad reason -> Error { err_path = path; err_reason = reason })

  type thread_outcome =
    | T_ok of Trace.t
    | T_salvaged of Trace.t * salvage
    | T_err of error

  let load_thread ~version ~salvage dir (pid, tid, truncated, len) =
    let path = trace_file dir ~pid ~tid in
    let sc = scan_trace ~version path in
    let outcome =
      match sc.sc_issue with
      | Some reason -> Error reason
      | None ->
        if Tracer.stream_events sc.sc_stream <> len then
          Error
            (Printf.sprintf "trace length mismatch (manifest %d, decoded %d)" len
               (Tracer.stream_events sc.sc_stream))
        else (
          (* a clean scan already verified completeness, but never let a
             decoder refusal escape as an exception *)
          match Tracer.stream_finish sc.sc_stream ~pid ~tid ~truncated with
          | tr -> Ok tr
          | exception Invalid_argument _ -> Error "incomplete event stream")
    in
    match outcome with
    | Ok tr -> T_ok tr
    | Error reason when salvage ->
      let tr = Tracer.stream_salvage sc.sc_stream ~pid ~tid in
      T_salvaged
        ( tr,
          { sv_pid = pid;
            sv_tid = tid;
            sv_events = Trace.length tr;
            sv_dropped_bytes = sc.sc_size - sc.sc_consumed;
            sv_reason = reason } )
    | Error reason -> T_err { err_path = path; err_reason = reason }

  let load ?(runner = sequential_runner) ?(salvage = false) ~dir () =
    match read_manifest dir with
    | Error e -> Error e
    | Ok m -> (
      let symtab = Symtab.create () in
      List.iter (fun name -> ignore (Symtab.intern symtab name)) m.m_symbols;
      let threads = Array.of_list m.m_threads in
      let outcomes =
        runner.run (Array.length threads) (fun i ->
            load_thread ~version:m.m_version ~salvage dir threads.(i))
      in
      let err =
        Array.fold_left
          (fun acc o ->
            match (acc, o) with Some _, _ -> acc | None, T_err e -> Some e | None, _ -> None)
          None outcomes
      in
      match err with
      | Some e -> Error e
      | None ->
        let traces =
          Array.to_list
            (Array.map
               (function
                 | T_ok tr | T_salvaged (tr, _) -> tr | T_err _ -> assert false)
               outcomes)
        in
        let salvaged =
          Array.to_list outcomes
          |> List.filter_map (function T_salvaged (_, s) -> Some s | _ -> None)
        in
        Ok
          { set = Trace_set.create symtab traces;
            version = m.m_version;
            salvaged })
end

(* The event-DB index decoder over tuple-returning [Varint.read]. *)
module Eventdb = struct
  module Fresh_event = Event
  open Difftrace_eventdb.Eventdb
  module Event = Fresh_event

  (* The index file's own copy of the record framing: [scan] copies
     every payload out of the image with [String.sub]. *)
  module Framing = struct
    let magic = "difftrace-eventdb 1\n"

    let add_record buf payload =
      Varint.write buf (String.length payload);
      Buffer.add_string buf payload;
      Buffer.add_string buf (Crc32.to_le_bytes (Crc32.string payload))

    let scan image =
      let mlen = String.length magic in
      if String.length image < mlen || String.sub image 0 mlen <> magic then
        Error "unrecognized magic/version"
      else begin
        let total = String.length image in
        let payloads = ref [] in
        let damage = ref None in
        let pos = ref mlen in
        (try
           while !pos < total && !damage = None do
             let len, p = Varint.read image !pos in
             if p + len + 4 > total then
               damage := Some (Printf.sprintf "truncated record at byte %d" !pos)
             else begin
               let payload = String.sub image p len in
               let crc = Crc32.of_le_bytes image (p + len) in
               if Crc32.string payload <> crc then
                 damage := Some (Printf.sprintf "CRC mismatch at byte %d" !pos)
               else begin
                 payloads := payload :: !payloads;
                 pos := p + len + 4
               end
             end
           done
         with Invalid_argument _ ->
           damage := Some (Printf.sprintf "malformed framing at byte %d" !pos));
        match !damage with
        | Some reason -> Error reason
        | None -> Ok (List.rev !payloads)
      end

    let read_file path =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))

    let write_atomic ~path contents =
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      (try output_string oc contents
       with e ->
         close_out_noerr oc;
         raise e);
      close_out oc;
      Sys.rename tmp path
  end

  module Intervals = Difftrace_eventdb.Intervals

  let tag_symbol = 1
  let tag_body = 2
  let tag_thread = 3
  let tag_postings = 4
  let tag_intervals = 5
  let tag_loops = 6

  exception Bad of string

  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt
  let index_file ~dir ~digest = Filename.concat dir (digest ^ ".edb")

  let read_elems s pos =
    let n, pos = Varint.read s pos in
    let pos = ref pos in
    let elems =
      Array.init n (fun _ ->
          let kind, p = Varint.read s !pos in
          match kind with
          | 0 ->
            let id, p = Varint.read s p in
            pos := p;
            Nlr.Sym id
          | 1 ->
            let body, p = Varint.read s p in
            let count, p = Varint.read s p in
            pos := p;
            Nlr.Loop { body; count }
          | k -> bad "unknown element kind %d" k)
    in
    (elems, !pos)

  type partial = {
    mutable p_truncated : bool;
    mutable p_events : Event.t array;
    mutable p_postings : (int * int array) list;
    mutable p_intervals : Intervals.t array;
    mutable p_loops : loop_span array;
  }

  let decode ~digest payloads =
    let symtab = Symtab.create () in
    let table = Nlr.Loop_table.create () in
    let threads = ref [] in
    (* (pid, tid) in record order *)
    let partials = Hashtbl.create 8 in
    let nth ti =
      match Hashtbl.find_opt partials ti with
      | Some p -> p
      | None -> bad "postings/intervals for unknown thread %d" ti
    in
    List.iter
      (fun s ->
        if String.length s = 0 then bad "empty record";
        let tag = Char.code s.[0] in
        let pos = 1 in
        if tag = tag_symbol then
          ignore (Symtab.intern symtab (String.sub s 1 (String.length s - 1)))
        else if tag = tag_body then begin
          let elems, pos = read_elems s pos in
          if pos <> String.length s then bad "trailing bytes in body record";
          ignore (Nlr.Loop_table.intern table elems)
        end
        else if tag = tag_thread then begin
          let pid, pos = Varint.read s pos in
          let tid, pos = Varint.read s pos in
          let trunc, pos = Varint.read s pos in
          let n, pos = Varint.read s pos in
          let pos = ref pos in
          let events =
            Array.init n (fun _ ->
                let e, p = Varint.read s !pos in
                pos := p;
                Event.decode e)
          in
          if !pos <> String.length s then bad "trailing bytes in thread record";
          let p =
            { p_truncated = trunc <> 0;
              p_events = events;
              p_postings = [];
              p_intervals = [||];
              p_loops = [||] }
          in
          Hashtbl.replace partials (List.length !threads) p;
          threads := (pid, tid) :: !threads
        end
        else if tag = tag_postings then begin
          let ti, pos = Varint.read s pos in
          let func, pos = Varint.read s pos in
          let n, pos = Varint.read s pos in
          let pos = ref pos in
          let prev = ref 0 in
          let positions =
            Array.init n (fun _ ->
                let d, p = Varint.read s !pos in
                pos := p;
                prev := !prev + d;
                !prev)
          in
          if !pos <> String.length s then bad "trailing bytes in postings record";
          if func >= Symtab.size symtab then bad "postings for unknown function";
          let p = nth ti in
          p.p_postings <- (func, positions) :: p.p_postings
        end
        else if tag = tag_intervals then begin
          let ti, pos = Varint.read s pos in
          let n, pos = Varint.read s pos in
          let pos = ref pos in
          let prev = ref 0 in
          let ivs =
            Array.init n (fun _ ->
                let func, p = Varint.read s !pos in
                let dstart, p = Varint.read s p in
                let len, p = Varint.read s p in
                let depth, p = Varint.read s p in
                let caller1, p = Varint.read s p in
                pos := p;
                prev := !prev + dstart;
                { Intervals.iv_func = func;
                  iv_start = !prev;
                  iv_stop = !prev + len;
                  iv_depth = depth;
                  iv_caller = caller1 - 1 })
          in
          if !pos <> String.length s then bad "trailing bytes in interval record";
          (nth ti).p_intervals <- ivs
        end
        else if tag = tag_loops then begin
          let ti, pos = Varint.read s pos in
          let n, pos = Varint.read s pos in
          let pos = ref pos in
          let spans =
            Array.init n (fun _ ->
                let body, p = Varint.read s !pos in
                let count, p = Varint.read s p in
                let start, p = Varint.read s p in
                let len, p = Varint.read s p in
                pos := p;
                if body >= Nlr.Loop_table.size table then
                  bad "span for unknown loop body";
                { lp_body = body; lp_count = count; lp_start = start;
                  lp_stop = start + len })
          in
          if !pos <> String.length s then bad "trailing bytes in loop record";
          (nth ti).p_loops <- spans
        end
        else bad "unknown record tag %d" tag)
      payloads;
    let n_funcs = Symtab.size symtab in
    let ids = Array.of_list (List.rev !threads) in
    let threads =
      Array.mapi
        (fun ti (pid, tid) ->
          let p = Hashtbl.find partials ti in
          let postings = Array.make n_funcs [||] in
          List.iter (fun (func, ps) -> postings.(func) <- ps) p.p_postings;
          { th_pid = pid;
            th_tid = tid;
            th_truncated = p.p_truncated;
            th_events = p.p_events;
            th_postings = postings;
            th_intervals = p.p_intervals;
            th_loops = p.p_loops })
        ids
    in
    { db_digest = digest; db_symtab = symtab; db_table = table;
      db_threads = threads }

  let load ~dir ~digest =
    let path = index_file ~dir ~digest in
    if not (Sys.file_exists path) then Error "no index"
    else
      match Framing.read_file path with
      | exception Sys_error reason -> Error reason
      | image -> (
        match Framing.scan image with
        | Error reason -> Error reason
        | Ok payloads -> (
          match decode ~digest payloads with
          | db ->
            Ok db
          | exception Bad reason -> Error reason
          | exception Invalid_argument reason -> Error reason))
end

(* The analysis store's record decoder and file scan over
   tuple-returning [Varint.read], each payload copied out of the image
   before it is checksummed and decoded. *)
module Store = struct
  module Nlr = Difftrace_nlr.Nlr

  let magic = "difftrace-store 1\n"

  type matrix_entry = {
    ns : string;
    stamp : int;
    labels : string array;
    digests : string array;
    matrix : Symmat.t;
  }

  (* a persisted MinHash signature, keyed by the attribute-set digest of
     the object it sketches — the same digest that gates matrix-row
     reuse, so a signature hit carries the same vouching: same digest,
     same attribute-name set, same signature bit for bit. *)
  type sig_entry = { sg_stamp : int; sg_mins : int array }

  (* a persisted variational alignment: the merged column sequence of an
     n-way vdiff, keyed by a digest over the aligned runs' element
     sequences (in run order) — same runs, same columns, so a hit skips
     the whole progressive re-alignment *)
  type vdiff_entry = {
    vd_stamp : int;
    vd_nruns : int;
    vd_cols : (string * int list) array;  (* (text, presence indices) *)
  }

  let matrix_identity (e : matrix_entry) =
    let pairs =
      Array.to_list (Array.map2 (fun l d -> l ^ "\x00" ^ d) e.labels e.digests)
      |> List.sort String.compare
    in
    Digest.string (String.concat "\x01" (e.ns :: pairs))

  let tag_symbol = 1
  let tag_body = 2
  let tag_summary = 3
  let tag_matrix = 4
  let tag_signature = 5
  let tag_vdiff = 6

  exception Bad_record of string

  let bad fmt = Printf.ksprintf (fun s -> raise (Bad_record s)) fmt

  let read_digest s pos =
    if pos + 16 > String.length s then bad "truncated digest";
    (String.sub s pos 16, pos + 16)

  let read_elem ~n_syms ~n_bodies s pos =
    let tag, pos = Varint.read s pos in
    match tag with
    | 0 ->
      let id, pos = Varint.read s pos in
      if id >= n_syms then bad "symbol id %d out of range (%d known)" id n_syms;
      (Nlr.Sym id, pos)
    | 1 ->
      let body, pos = Varint.read s pos in
      let count, pos = Varint.read s pos in
      if body >= n_bodies then
        bad "loop body %d out of range (%d known)" body n_bodies;
      (Nlr.Loop { body; count }, pos)
    | _ -> bad "unknown element tag %d" tag

  let read_elems ~n_syms ~n_bodies s pos =
    let n, pos = Varint.read s pos in
    (* an element is at least two varint bytes — a count the remaining
       payload cannot hold is corruption, not a huge allocation *)
    if n * 2 > String.length s - pos then bad "element count %d overruns record" n;
    let pos = ref pos in
    let elems =
      Array.init n (fun _ ->
          let e, p = read_elem ~n_syms ~n_bodies s !pos in
          pos := p;
          e)
    in
    (elems, !pos)

  type raw =
    | Rsymbol of string
    | Rbody of Nlr.elem array
    | Rsummary of { key : string; stamp : int; nlr : Nlr.t }
    | Rmatrix of matrix_entry
    | Rsignature of { digest : string; entry : sig_entry }
    | Rvdiff of { key : string; entry : vdiff_entry }

  (* [n_syms]/[n_bodies] are the table sizes accumulated from preceding
     records of this load — the only IDs a well-formed record may cite *)
  let decode_payload ~n_syms ~n_bodies s =
    if String.length s = 0 then bad "empty payload";
    let len = String.length s in
    let tag = Char.code s.[0] in
    let record =
      if tag = tag_symbol then (Rsymbol (String.sub s 1 (len - 1)), len)
      else if tag = tag_body then begin
        (* a body's loops reference strictly earlier bodies (NLR creates
           inner loops first), so the running count is the right bound *)
        let elems, pos = read_elems ~n_syms ~n_bodies s 1 in
        (Rbody elems, pos)
      end
      else if tag = tag_summary then begin
        let key, pos = read_digest s 1 in
        let stamp, pos = Varint.read s pos in
        let input_length, pos = Varint.read s pos in
        let elems, pos = read_elems ~n_syms ~n_bodies s pos in
        (Rsummary { key; stamp; nlr = { Nlr.elems; input_length } }, pos)
      end
      else if tag = tag_matrix then begin
        let ns, pos = read_digest s 1 in
        let stamp, pos = Varint.read s pos in
        let n, pos = Varint.read s pos in
        (* each object costs ≥ 17 bytes (label length + digest) *)
        if n * 17 > len - pos then bad "object count %d overruns record" n;
        let labels = Array.make n "" and digests = Array.make n "" in
        let pos = ref pos in
        for i = 0 to n - 1 do
          let ll, p = Varint.read s !pos in
          if p + ll > len then bad "truncated matrix label";
          labels.(i) <- String.sub s p ll;
          let d, p = read_digest s (p + ll) in
          digests.(i) <- d;
          pos := p
        done;
        let cells = n * (n + 1) / 2 in
        if !pos + (8 * cells) > len then bad "truncated matrix cells";
        let flat =
          Array.init cells (fun _ ->
              let v = Int64.float_of_bits (String.get_int64_le s !pos) in
              pos := !pos + 8;
              v)
        in
        (Rmatrix { ns; stamp; labels; digests; matrix = Symmat.of_cells ~n flat },
         !pos)
      end
      else if tag = tag_signature then begin
        let digest, pos = read_digest s 1 in
        let stamp, pos = Varint.read s pos in
        let k, pos = Varint.read s pos in
        if pos + (8 * k) > len then bad "truncated signature rows";
        let pos = ref pos in
        let mins =
          Array.init k (fun _ ->
              let v = Int64.to_int (String.get_int64_le s !pos) in
              pos := !pos + 8;
              v)
        in
        (Rsignature { digest; entry = { sg_stamp = stamp; sg_mins = mins } },
         !pos)
      end
      else if tag = tag_vdiff then begin
        let key, pos = read_digest s 1 in
        let stamp, pos = Varint.read s pos in
        let nruns, pos = Varint.read s pos in
        if nruns < 1 then bad "vdiff with %d runs" nruns;
        let ncols, pos = Varint.read s pos in
        (* a column costs at least 2 bytes (empty text, one index) *)
        if ncols * 2 > len - pos then bad "column count %d overruns record" ncols;
        let pos = ref pos in
        let cols =
          Array.init ncols (fun _ ->
              let tl, p = Varint.read s !pos in
              if p + tl > len then bad "truncated vdiff column text";
              let text = String.sub s p tl in
              let np, p = Varint.read s (p + tl) in
              if np < 1 then bad "vdiff column with empty presence";
              if np > nruns then bad "presence count %d exceeds %d runs" np nruns;
              let p = ref p in
              let present =
                List.init np (fun _ ->
                    let i, q = Varint.read s !p in
                    if i >= nruns then
                      bad "run index %d out of range (%d runs)" i nruns;
                    p := q;
                    i)
              in
              pos := !p;
              (text, present))
        in
        (Rvdiff { key; entry = { vd_stamp = stamp; vd_nruns = nruns;
                                 vd_cols = cols } },
         !pos)
      end
      else bad "unknown record type %d" tag
    in
    let record, consumed = record in
    if consumed <> len then bad "trailing bytes in record";
    record

  (* {2 File scan}

     [scan] splits a file image into CRC-checked, structurally decoded
     records, stopping at the first damage and reporting it. It never
     raises: truncation, bit flips, and malformed varints all fold into
     the [damage] component. *)

  let scan s =
    let mlen = String.length magic in
    if String.length s < mlen || String.sub s 0 mlen <> magic then
      ([], Some "unrecognized magic/version", 0)
    else begin
      let total = String.length s in
      let records = ref [] in
      let damage = ref None in
      let n_syms = ref 0 and n_bodies = ref 0 in
      let pos = ref mlen in
      (try
         while !pos < total && !damage = None do
           let len, p = Varint.read s !pos in
           if p + len + 4 > total then begin
             damage :=
               Some (Printf.sprintf "truncated record at byte %d" !pos)
           end
           else begin
             let payload = String.sub s p len in
             let crc = Crc32.of_le_bytes s (p + len) in
             if Crc32.string payload <> crc then
               damage :=
                 Some (Printf.sprintf "CRC mismatch at byte %d" !pos)
             else begin
               match
                 decode_payload ~n_syms:!n_syms ~n_bodies:!n_bodies payload
               with
               | Rsymbol _ as r ->
                 incr n_syms;
                 records := r :: !records;
                 pos := p + len + 4
               | Rbody _ as r ->
                 incr n_bodies;
                 records := r :: !records;
                 pos := p + len + 4
               | r ->
                 records := r :: !records;
                 pos := p + len + 4
               | exception Bad_record reason ->
                 damage :=
                   Some (Printf.sprintf "%s at byte %d" reason !pos)
             end
           end
         done
       with Invalid_argument _ ->
         damage := Some (Printf.sprintf "malformed framing at byte %d" !pos));
      (List.rev !records, !damage, total)
    end
end

(* Campaign footer checks, as [read_meta] and [load_manifest] did them
   inline on the text of a per-cell meta file and a campaign manifest. *)
module Campaign = struct
  (* [read_meta]: [Some body] only for an intact footer *)
  let meta_body text =
    try
      let crc_len = String.length "crc 00000000\n" in
      if String.length text <= crc_len then None
      else
        let body = String.sub text 0 (String.length text - crc_len) in
        let footer = String.sub text (String.length text - crc_len) crc_len in
        let crc = Scanf.sscanf footer "crc %x" (fun c -> c) in
        if Crc32.string body <> crc then None
        else Some body
    with _ -> None

  (* [load_manifest]: the text to parse, and whether its footer held *)
  let manifest_body text =
    let crc_len = String.length "crc 00000000\n" in
    let body, crc_ok =
      if String.length text <= crc_len then (text, false)
      else begin
        let body = String.sub text 0 (String.length text - crc_len) in
        let footer = String.sub text (String.length text - crc_len) crc_len in
        match Scanf.sscanf footer "crc %x" (fun c -> c) with
        | crc when Crc32.string body = crc -> (body, true)
        | _ -> (text, false)
        | exception _ -> (text, false)
      end
    in
    (body, crc_ok)
end
