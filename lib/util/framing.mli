(** The one record container every persisted DiffTrace file uses.

    A framed file is a magic line followed by records, each a varint
    payload length, the payload, and the CRC-32 of the payload as 4
    little-endian bytes. The analysis store and the event-DB index are
    framed files; archive v2 trace files frame their chunks the same
    way. A flipped bit anywhere in a record is detected before any
    structural decoding happens.

    Text files (the archive v2 manifest, campaign manifests, per-cell
    run metadata) close instead with a footer line, [crc] and the
    CRC-32 of everything above it as 8 hex digits: {!seal} and
    {!unseal}. *)

(** A record decoder raises [Bad_record reason] on structural damage;
    {!scan} reports it as ["<reason> at byte <n>"]. *)
exception Bad_record of string

(** [bad fmt ...] raises {!Bad_record} with a formatted reason. *)
val bad : ('a, unit, string, 'b) format4 -> 'a

(** [add_record buf payload] appends one framed record. *)
val add_record : Buffer.t -> string -> unit

(** [add_record_sub buf s ~pos ~len] frames the slice
    [s.[pos .. pos+len-1]] without copying it first. *)
val add_record_sub : Buffer.t -> string -> pos:int -> len:int -> unit

(** [scan ~magic image f] checks that [image] starts with [magic], then
    checks each record's CRC in place and hands the payload to [f pos
    len] as a view of [image], in file order. It stops at the first
    damage and returns it:
    - ["unrecognized magic/version"];
    - ["truncated record at byte <n>"] and ["CRC mismatch at byte <n>"];
    - ["malformed framing at byte <n>"] when a length varint, or any
      varint [f] reads, is unreadable ([Invalid_argument]);
    - ["<reason> at byte <n>"] when [f] raises [Bad_record reason].

    [<n>] is the offset of the damaged record's length prefix. Never
    raises on file content; other exceptions from [f] propagate. *)
val scan :
  magic:string -> string -> (int -> int -> unit) -> (unit, string) result

(** [seal body] is [body] followed by its footer line. *)
val seal : string -> string

(** [unseal text] is the body of a sealed text. [Error `Missing] when
    [text] is no longer than a footer or its last line does not parse
    as one; [Error `Mismatch] when the footer disagrees with the
    body. *)
val unseal : string -> (string, [ `Missing | `Mismatch ]) result

(** [read_file path] is the whole file as a string.
    Raises [Sys_error] on IO failure. *)
val read_file : string -> string

(** [write_file path contents] writes and closes [path]. A failed write
    or close raises [Sys_error]. *)
val write_file : string -> string -> unit

(** [write_atomic ~path contents] is [write_file] on [path ^ ".tmp"],
    then a rename over [path]: a failed write or close raises
    [Sys_error] and leaves [path] untouched. *)
val write_atomic : path:string -> string -> unit
