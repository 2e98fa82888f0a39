exception Bad_record of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_record s)) fmt

let add_record_sub buf s ~pos ~len =
  Varint.write buf len;
  Buffer.add_substring buf s pos len;
  Buffer.add_string buf
    (Crc32.to_le_bytes (Crc32.finish (Crc32.update Crc32.init s ~pos ~len)))

let add_record buf payload =
  add_record_sub buf payload ~pos:0 ~len:(String.length payload)

let scan ~magic image f =
  if not (String.starts_with ~prefix:magic image) then
    Error "unrecognized magic/version"
  else begin
    let total = String.length image in
    let at = ref (String.length magic) and damage = ref None in
    let fail fmt = Printf.ksprintf (fun s -> damage := Some s) fmt in
    while Option.is_none !damage && !at < total do
      match
        let c = Varint.cursor ~pos:!at image in
        let len = Varint.next c in
        let pos = c.Varint.pos in
        if pos + len + 4 > total then fail "truncated record at byte %d" !at
        else if
          Crc32.finish (Crc32.update Crc32.init image ~pos ~len)
          <> Crc32.of_le_bytes image (pos + len)
        then fail "CRC mismatch at byte %d" !at
        else begin
          f pos len;
          at := pos + len + 4
        end
      with
      | () -> ()
      | exception Invalid_argument _ -> fail "malformed framing at byte %d" !at
      | exception Bad_record reason -> fail "%s at byte %d" reason !at
    done;
    match !damage with None -> Ok () | Some reason -> Error reason
  end

let footer_length = String.length "crc 00000000\n"
let seal body = body ^ Printf.sprintf "crc %08x\n" (Crc32.string body)

let unseal text =
  let n = String.length text in
  if n <= footer_length then Error `Missing
  else
    let body = String.sub text 0 (n - footer_length) in
    let footer = String.sub text (n - footer_length) footer_length in
    match Scanf.sscanf footer "crc %x" Fun.id with
    | crc -> if Crc32.string body = crc then Ok body else Error `Mismatch
    | exception _ -> Error `Missing

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [close_out] stays outside any [finally]: a write the kernel only
   refuses at close (a full disk) must surface as [Sys_error], never as
   [Fun.Finally_raised] or as a silent success *)
let write_file path contents =
  let oc = open_out_bin path in
  (try output_string oc contents
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let write_atomic ~path contents =
  let tmp = path ^ ".tmp" in
  write_file tmp contents;
  Sys.rename tmp path
