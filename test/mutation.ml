(* Damage generators for framed files (magic line, then CRC-framed
   records), shared by the event-DB index and analysis-store oracle
   properties. *)

(* One byte replaced, the text cut short, or a tail appended.
   Replacement bytes stay below 0x80, so a damaged count is never longer
   than the varints around it and the oracles' unsized allocations stay
   small. *)
let byte_edit =
  QCheck2.Gen.(
    let* kind = int_range 0 2 in
    let* at = int_range 0 1_000_000 in
    let* byte = map Char.chr (int_range 0 0x7f) in
    let* tail = string_size ~gen:(map Char.chr (int_range 0 0x7f)) (int_range 1 6) in
    return (fun s ->
        let n = String.length s in
        match kind with
        | 0 when n > 0 -> String.mapi (fun i c -> if i = at mod n then byte else c) s
        | 1 -> String.sub s 0 (at mod (n + 1))
        | _ -> s ^ tail))

(* Damage either the file's bytes (caught by the framing) or one record
   of a chosen kind, re-framed with a valid checksum so the record
   decoder itself sees it: one to three byte edits, or the record
   dropped or duplicated. [unframe] cuts an image into its payloads, whose
   byte 0 is the record tag (1..6); [reframe] frames payloads back into an
   image. *)
let record_mutation ~unframe ~reframe =
  QCheck2.Gen.(
    let* target = int_range 0 7 in
    let* nth = int_range 0 1_000 in
    let* edits = list_size (int_range 1 3) byte_edit in
    let edit s = List.fold_left (fun s f -> f s) s edits in
    return (fun image ->
        match (target, unframe image) with
        | 0, _ | _, Error _ -> edit image
        | _, Ok payloads ->
          (* records of tag [target] (1..6), or any record for 7 *)
          let picked =
            List.filter
              (fun p -> target = 7 || (p <> "" && Char.code p.[0] = target))
              payloads
          in
          let victim =
            if picked = [] then "" else List.nth picked (nth mod List.length picked)
          in
          reframe
            (List.concat_map
               (fun p ->
                 if p != victim then [ p ]
                 else
                   match nth mod 8 with
                   | 0 -> []
                   | 1 -> [ p; p ]
                   | _ -> [ edit p ])
               payloads)))
