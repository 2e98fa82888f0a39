open Difftrace_util

(* Classic LZW. Codes 0..255 denote single bytes; code 256 is the
   end-of-stream marker; fresh phrases get codes from 257 up. The
   current phrase is represented by its dictionary code, so the encoder
   state is O(1) per step plus the dictionary. *)

let eos_code = 256
let first_code = 257

(* The dictionary maps (phrase code, next byte) to the extended
   phrase's code. It is an open-addressing table over the packed int key
   [code lsl 8 lor byte] with linear probing, kept at most half full,
   so a lookup hashes no tuple and a miss allocates nothing. *)

type encoder = {
  mutable keys : int array; (* packed keys; -1 = empty slot *)
  mutable codes : int array;
  mutable used : int;
  mutable next_code : int;
  mutable current : int; (* code of the pending phrase; -1 = none *)
  out : Buffer.t;
  mutable fed : int;
}

let initial_slots = 1024

let encoder () =
  { keys = Array.make initial_slots (-1);
    codes = Array.make initial_slots 0;
    used = 0;
    next_code = first_code;
    current = -1;
    out = Buffer.create 256;
    fed = 0 }

let slot key mask =
  let h = key * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

let insert keys codes key code =
  let mask = Array.length keys - 1 in
  let i = ref (slot key mask) in
  while keys.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- key;
  codes.(!i) <- code

let grow e =
  let keys = e.keys and codes = e.codes in
  let n = 2 * Array.length keys in
  e.keys <- Array.make n (-1);
  e.codes <- Array.make n 0;
  Array.iteri (fun i k -> if k >= 0 then insert e.keys e.codes k codes.(i)) keys

let feed_byte e b =
  e.fed <- e.fed + 1;
  if e.current < 0 then e.current <- b
  else begin
    let key = (e.current lsl 8) lor b in
    let keys = e.keys in
    let mask = Array.length keys - 1 in
    let i = ref (slot key mask) in
    while keys.(!i) >= 0 && keys.(!i) <> key do
      i := (!i + 1) land mask
    done;
    if keys.(!i) = key then e.current <- e.codes.(!i)
    else begin
      Varint.write e.out e.current;
      keys.(!i) <- key;
      e.codes.(!i) <- e.next_code;
      e.next_code <- e.next_code + 1;
      e.used <- e.used + 1;
      if 2 * e.used > Array.length keys then grow e;
      e.current <- b
    end
  end

let feed e c = feed_byte e (Char.code c)

let feed_string e s =
  for i = 0 to String.length s - 1 do
    feed_byte e (Char.code s.[i])
  done

let feed_varint e n =
  if n < 0 then invalid_arg "Lzw.feed_varint: negative";
  let n = ref n in
  while !n >= 0x80 do
    feed_byte e (0x80 lor (!n land 0x7f));
    n := !n lsr 7
  done;
  feed_byte e !n

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

(* Decoder: phrase [first_code + i] is stored flat as its prefix code
   [prefix.(i)], its last byte [last.[i]], its first byte [first.[i]]
   and its length [plen.(i)]; codes below 256 are their own one-byte
   phrases and are never stored. A phrase is written backwards into the
   output buffer in one walk of its prefix chain, and its first byte is
   a table read, so no code is walked twice. Handles the KwKwK case (a
   code one past the dictionary end refers to the phrase currently being
   defined). The decoder is incremental: compressed bytes arrive in
   arbitrary slices (a varint code may straddle two feeds), so the
   archive layer can stream a trace file chunk by chunk without ever
   materializing it as one string. *)

type decoder = {
  mutable prefix : int array;
  mutable last : Bytes.t;
  mutable first : Bytes.t;
  mutable plen : int array;
  mutable phrases : int; (* codes first_code .. first_code+phrases-1 *)
  mutable out : Bytes.t; (* decoded bytes not yet taken: [0, out_len) *)
  mutable out_len : int;
  mutable prev : int; (* previous code; -1 = none yet *)
  mutable acc : int; (* partial varint accumulator *)
  mutable shift : int; (* nonzero while a varint straddles feeds *)
  mutable eos : bool; (* end-of-stream marker consumed *)
}

let initial_phrases = 256

let decoder () =
  { prefix = Array.make initial_phrases 0;
    last = Bytes.create initial_phrases;
    first = Bytes.create initial_phrases;
    plen = Array.make initial_phrases 0;
    phrases = 0;
    out = Bytes.create 1024;
    out_len = 0;
    prev = -1;
    acc = 0;
    shift = 0;
    eos = false }

let first_byte d code =
  if code < 256 then Char.chr code else Bytes.get d.first (code - first_code)

let phrase_length d code = if code < 256 then 1 else d.plen.(code - first_code)

let add_phrase d ~prefix ~last =
  let i = d.phrases in
  if i = Array.length d.prefix then begin
    let grow_ints a = Array.append a (Array.make i 0) in
    d.prefix <- grow_ints d.prefix;
    d.plen <- grow_ints d.plen;
    d.last <- Bytes.extend d.last 0 i;
    d.first <- Bytes.extend d.first 0 i
  end;
  d.prefix.(i) <- prefix;
  Bytes.set d.last i last;
  Bytes.set d.first i (first_byte d prefix);
  d.plen.(i) <- phrase_length d prefix + 1;
  d.phrases <- i + 1

let emit d code =
  let n = phrase_length d code in
  let need = d.out_len + n in
  if need > Bytes.length d.out then
    d.out <- Bytes.extend d.out 0 (max n (Bytes.length d.out));
  let out = d.out in
  let c = ref code and pos = ref (need - 1) in
  while !c >= first_code do
    let i = !c - first_code in
    Bytes.set out !pos (Bytes.get d.last i);
    c := d.prefix.(i);
    decr pos
  done;
  Bytes.set out !pos (Char.chr !c);
  d.out_len <- need

let decode_code d code =
  if code = eos_code then d.eos <- true
  else begin
    let valid_max = first_code + d.phrases in
    if code > valid_max || code < 0 then invalid_arg "Lzw.decompress: bad code";
    (* the first code of a stream must be a literal: no phrase exists
       yet, and the KwKwK rule needs a previous code to lean on *)
    if d.prev < 0 && code >= first_code then
      invalid_arg "Lzw.decompress: bad code";
    if d.prev >= 0 then
      (* Define the phrase prev ++ first_byte(code); for the KwKwK
         case code = valid_max, whose first byte equals prev's. *)
      add_phrase d ~prefix:d.prev
        ~last:(first_byte d (if code = valid_max then d.prev else code));
    emit d code;
    d.prev <- code
  end

let decode_feed d s =
  for i = 0 to String.length s - 1 do
    if d.eos then
      invalid_arg "Lzw.decompress: trailing bytes after end-of-stream";
    let b = Char.code s.[i] in
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
    else d.shift <- d.shift + 7
  done

let decode_output d = d.out
let decode_output_length d = d.out_len
let decode_clear d = d.out_len <- 0

(* [decode_take] drains the decoded bytes produced so far, so callers
   can consume output incrementally and keep the buffer bounded. *)
let decode_take d =
  let s = Bytes.sub_string d.out 0 d.out_len in
  d.out_len <- 0;
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
