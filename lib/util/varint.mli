(** LEB128 variable-length integer coding.

    The ParLOT-style trace codec stores function IDs and LZW codes as
    unsigned varints: small IDs (the common case in hot loops) take a
    single byte, keeping the on-the-fly compressed streams compact. *)

(** [write buf n] appends the unsigned LEB128 coding of [n] to [buf].
    Raises [Invalid_argument] if [n < 0]. *)
val write : Buffer.t -> int -> unit

(** [read s pos] decodes an unsigned varint starting at [pos] and returns
    [(value, next_pos)]. Raises [Invalid_argument] on truncated input and
    on overflow — a continuation run that would shift past the native
    int's 62 value bits (malformed or adversarial input; [write] never
    produces it). *)
val read : string -> int -> int * int

(** {1 Cursors}

    A cursor reads consecutive varints out of one string without
    allocating: [next] advances [pos] in place, where [read] returns a
    fresh pair per value. The store and event-DB record decoders read
    every record in place this way, each cursor bounded by its
    record's payload. *)

type cursor = { s : string; mutable pos : int; stop : int }

(** [cursor ?pos ?stop s] reads [s] from [pos] (default 0) up to, not
    including, [stop] (default [String.length s]): a cursor over one
    record's payload never reads past it. Raises [Invalid_argument] if
    [stop] lies past the end of [s]. *)
val cursor : ?pos:int -> ?stop:int -> string -> cursor

(** [remaining c] is the number of bytes left before [c.stop]. *)
val remaining : cursor -> int

(** [next c] decodes the varint at [c.pos] and advances past it. Raises
    [Invalid_argument] exactly as {!read} does — a varint running into
    [c.stop] is truncated input — leaving [c.pos] unchanged. *)
val next : cursor -> int

(** [size n] is the number of bytes [write] would emit for [n]. *)
val size : int -> int

(** [write_list buf l] writes the length of [l] followed by its
    elements. *)
val write_list : Buffer.t -> int list -> unit

(** [read_list s pos] reads a list written by [write_list]. *)
val read_list : string -> int -> int list * int
