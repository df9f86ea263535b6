(* Write-ahead logging: redo-only records over data mutations and
   soft-constraint catalog transitions, framed by begin/commit/abort.
   Memory sink for tests (durable-at-append), file sink for the CLI.

   The file format is line-oriented text: tab-separated fields, strings
   backslash-escaped, floats printed in hex ("%h") so the round-trip is
   exact.  Text rather than binary keeps crashed logs inspectable with
   standard tools, which matters more here than write amplification. *)

type sc_snapshot = {
  sc_name : string;
  sc_table : string;
  sc_absolute : bool;
  sc_confidence : float;
  sc_state : string;
  sc_anchor : int;
  sc_violations : int;
  sc_repr : string;
}

type sc_change =
  | Sc_installed of sc_snapshot
  | Sc_state of { name : string; state : string }
  | Sc_kind of { name : string; absolute : bool; confidence : float }
  | Sc_anchor of { name : string; anchor : int }
  | Sc_violations of { name : string; count : int }
  | Sc_statement of { name : string; repr : string }
  | Sc_dropped of { name : string }
  | Sc_exception of { name : string; table : string }

type record =
  | Begin of { txn : int }
  | Commit of { txn : int }
  | Abort of { txn : int }
  | Insert of {
      txn : int;
      table : string;
      rid : Table.rid;
      row : Value.t array;
    }
  | Delete of {
      txn : int;
      table : string;
      rid : Table.rid;
      row : Value.t array;
    }
  | Update of {
      txn : int;
      table : string;
      rid : Table.rid;
      before : Value.t array;
      after : Value.t array;
    }
  | Ddl of { txn : int; sql : string }
  | Sc of { txn : int; change : sc_change }
  | Idx_state of { txn : int; name : string; state : string }
      (* an index lifecycle transition (write_only/backfilling/readable/
         demoted): replay re-derives index consistency from these — a
         [readable] transition triggers a rebuild, an index still
         backfilling when the log ends is demoted *)

exception Wal_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Wal_error s)) fmt

(* ---- fault hooks -------------------------------------------------------- *)

(* [rel] sits below [obs], so the fault harness installs itself here. *)
let fault_hook : (string -> unit) ref = ref (fun _ -> ())
let set_fault_hook f = fault_hook := f
let point name = !fault_hook name

(* The physical-write indirection: every byte the file sink emits goes
   through this hook, so {!Obs.Fault} can tear a write short
   ([Torn_write]) or flip a byte ([Bit_flip]) at the exact point the
   bytes would hit the OS.  The default is a pass-through. *)
let write_hook : (point:string -> write:(string -> unit) -> string -> unit) ref
    =
  ref (fun ~point:_ ~write s -> write s)

let set_write_hook f = write_hook := f

let fault_points =
  [ "wal.append"; "wal.io"; "wal.pre_commit"; "wal.post_commit";
    "wal.checkpoint" ]

(* ---- text codec --------------------------------------------------------- *)

(* Fields join with tabs, records with newlines.  Strings are
   backslash-escaped so a field never contains a literal tab or newline;
   values carry a one-character type tag, floats print in hex ("%h") for
   an exact round-trip, dates as their integer epoch day.

   One writer and one reader serve every line this format frames — WAL
   records here, wire frames in {!Srv.Proto}.  The writer makes a line
   in one pass: each field reserves its worst-case length — the buffer
   doubles when it does not fit — then writes in place: digits right to
   left, a normal float's "%h" image from its bits.  The reader
   is a cursor: it finds the next tab in place, parses decimal integers
   without copying, and copies only string and float bodies. *)

let escapes c = c = '\\' || c = '\t' || c = '\n' || c = '\r'

(* the digits of [m <= 0], so [min_int] needs no special case *)
let rec digits m =
  if m > -10 then 1
  else if m > -100 then 2
  else if m > -1000 then 3
  else if m > -10000 then 4
  else if m > -100000 then 5
  else if m > -1000000 then 6
  else 6 + digits (m / 1000000)

let escaped_length s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    if escapes (String.unsafe_get s i) then incr n
  done;
  !n

(* [Printf.sprintf "%h"] reduces to this primitive call *)
external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

module Writer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable pos : int;
    mutable fields : int;  (* fields begun on this line *)
  }

  (* Room for [n] more bytes: the buffer doubles (at least) when they do
     not fit, keeping the line written so far. *)
  let reserve w n =
    if w.pos + n > Bytes.length w.buf then begin
      let b = Bytes.create (max (w.pos + n) (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf 0 b 0 w.pos;
      w.buf <- b
    end

  (* The unchecked writers below assume their bytes are reserved. *)
  let put_char w c =
    Bytes.unsafe_set w.buf w.pos c;
    w.pos <- w.pos + 1

  let put_string w s =
    Bytes.unsafe_blit_string s 0 w.buf w.pos (String.length s);
    w.pos <- w.pos + String.length s

  (* a tab before every field but the first, and the field's own bytes *)
  let begin_field w n =
    reserve w (n + 1);
    if w.fields > 0 then put_char w '\t';
    w.fields <- w.fields + 1

  (* "-4611686018427387904" *)
  let int_room = 20

  (* digits are written right to left, straight into the line *)
  let put_int w n =
    let len = if n < 0 then 1 + digits n else digits (-n) in
    let m = ref (if n < 0 then n else -n) in
    for i = w.pos + len - 1 downto if n < 0 then w.pos + 1 else w.pos do
      let q = !m / 10 in
      Bytes.unsafe_set w.buf i (Char.unsafe_chr (48 + (q * 10) - !m));
      m := q
    done;
    if n < 0 then Bytes.unsafe_set w.buf w.pos '-';
    w.pos <- w.pos + len

  (* "-0x1.fffffffffffffp-1022" *)
  let float_room = 24

  (* A normal float's "%h" image, as the C primitive makes it: sign,
     "0x1", then "." and the fraction's hex digits with trailing zeros
     dropped (none when the fraction is 0), then "p", the exponent's
     sign and its decimal.  Zero, subnormals, infinities and nan (an
     exponent field of 0 or 0x7ff) go to the primitive. *)
  let put_float w f =
    (* the exponent and fraction fields: all but the sign bit fit an int *)
    let bits = Int64.to_int (Int64.bits_of_float f) in
    let e = (bits lsr 52) land 0x7ff in
    if e = 0 || e = 0x7ff then put_string w (hexstring_of_float f (-6) '-')
    else begin
      if Float.sign_bit f then put_char w '-';
      put_string w "0x1";
      let frac = bits land 0xf_ffff_ffff_ffff in
      if frac <> 0 then begin
        put_char w '.';
        let m = ref frac in
        while !m <> 0 do
          let d = !m lsr 48 in
          put_char w (Char.unsafe_chr (if d < 10 then 48 + d else 87 + d));
          m := (!m lsl 4) land 0xf_ffff_ffff_ffff
        done
      end;
      let x = e - 1023 in
      put_char w 'p';
      put_char w (if x < 0 then '-' else '+');
      put_int w (abs x)
    end

  (* [len] is [escaped_length s] *)
  let put_escaped w s len =
    if len = String.length s then put_string w s
    else
      String.iter
        (function
          | '\\' -> put_string w "\\\\"
          | '\t' -> put_string w "\\t"
          | '\n' -> put_string w "\\n"
          | '\r' -> put_string w "\\r"
          | c -> put_char w c)
        s

  (* [emit] writes at the start of [!buf], which is replaced as the line
     outgrows it, then a newline ends the line.  Returns its length. *)
  let frame buf emit =
    let w = { buf = !buf; pos = 0; fields = 0 } in
    emit w;
    reserve w 1;
    put_char w '\n';
    buf := w.buf;
    w.pos

  (* a frame in a fresh buffer, less its newline *)
  let to_string emit =
    let buf = ref (Bytes.create 256) in
    let n = frame buf emit in
    Bytes.sub_string !buf 0 (n - 1)

  let raw w s =
    begin_field w (String.length s);
    put_string w s

  let int w n =
    begin_field w int_room;
    put_int w n

  let tagged_int w tag n =
    begin_field w (1 + int_room);
    put_char w tag;
    put_int w n

  let float w f =
    begin_field w float_room;
    put_float w f

  let bool w b = raw w (if b then "1" else "0")

  let string w s =
    let len = escaped_length s in
    begin_field w len;
    put_escaped w s len

  let value w v =
    match v with
    | Value.Null ->
        begin_field w 1;
        put_char w 'N'
    | Value.Int i ->
        begin_field w (1 + int_room);
        put_char w 'I';
        put_int w i
    | Value.Float f ->
        begin_field w (1 + float_room);
        put_char w 'F';
        put_float w f
    | Value.String s ->
        let len = escaped_length s in
        begin_field w (1 + len);
        put_char w 'S';
        put_escaped w s len
    | Value.Bool b -> raw w (if b then "B1" else "B0")
    | Value.Date d ->
        begin_field w (1 + int_room);
        put_char w 'D';
        put_int w d

  let row w r =
    int w (Array.length r);
    for i = 0 to Array.length r - 1 do
      value w (Array.unsafe_get r i)
    done
end

(* Decoding over [s.[start .. stop - 1]], the bytes of one field. *)

let body s start stop = String.sub s start (stop - start)

(* the plain decimal [s.[i .. stop - 1]], or -1 at a non-digit *)
let rec decimal s i stop acc =
  if i = stop then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> decimal s (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* Decimal spellings of up to 18 digits (below [max_int]) are parsed in
   place; anything else goes to [int_of_string_opt], so the accepted set
   is exactly the stdlib's. *)
let int_in what s start stop =
  let neg = start < stop && s.[start] = '-' in
  let first = if neg then start + 1 else start in
  let n =
    if stop - first >= 1 && stop - first <= 18 then decimal s first stop 0
    else -1
  in
  if n >= 0 then if neg then -n else n
  else
    match int_of_string_opt (body s start stop) with
    | Some n -> n
    | None -> error "bad %s field %S" what (body s start stop)

let float_in what s start stop =
  match float_of_string_opt (body s start stop) with
  | Some f -> f
  | None -> error "bad %s field %S" what (body s start stop)

(* A backslash before one of [\\ t n r] is an escape, any other escape
   is an error, and a lone trailing backslash stands for itself. *)
let unescape_in s start stop =
  let rec plain i = i >= stop || (s.[i] <> '\\' && plain (i + 1)) in
  if plain start then body s start stop
  else
    let b = Bytes.create (stop - start) in
    let rec go i j =
      if i >= stop then j
      else if s.[i] = '\\' && i + 1 < stop then begin
        (match s.[i + 1] with
        | '\\' -> Bytes.set b j '\\'
        | 't' -> Bytes.set b j '\t'
        | 'n' -> Bytes.set b j '\n'
        | 'r' -> Bytes.set b j '\r'
        | c -> error "bad escape '\\%c'" c);
        go (i + 2) (j + 1)
      end
      else begin
        Bytes.set b j s.[i];
        go (i + 1) (j + 1)
      end
    in
    Bytes.sub_string b 0 (go start 0)

let value_in s start stop =
  if start >= stop then error "empty value field";
  match s.[start] with
  | 'N' -> Value.Null
  | 'I' -> Value.Int (int_in "int" s (start + 1) stop)
  | 'F' -> Value.Float (float_in "float" s (start + 1) stop)
  | 'S' -> Value.String (unescape_in s (start + 1) stop)
  | 'B' when stop - start = 2 && s.[start + 1] = '1' -> Value.Bool true
  | 'B' when stop - start = 2 && s.[start + 1] = '0' -> Value.Bool false
  | 'B' -> error "bad bool field %S" (body s start stop)
  | 'D' -> Value.Date (int_in "date" s (start + 1) stop)
  | _ -> error "bad value field %S" (body s start stop)

module Reader = struct
  (* [pos] is where the next field starts; past the end of [s] once the
     last field is taken, so "a\t" still has an (empty) second field —
     the fields are exactly [String.split_on_char '\t' s]. *)
  type t = {
    s : string;
    mutable pos : int;
    mutable start : int;  (* the field last taken: [s.[start .. stop - 1]] *)
    mutable stop : int;
  }

  let of_string s = { s; pos = 0; start = 0; stop = 0 }
  let at_end r = r.pos > String.length r.s

  let next r =
    if at_end r then error "truncated line";
    let n = String.length r.s in
    let stop =
      match String.index_from r.s r.pos '\t' with
      | i -> i
      | exception Not_found -> n
    in
    r.start <- r.pos;
    r.stop <- stop;
    r.pos <- stop + 1

  let finish r = if not (at_end r) then error "trailing fields"

  let raw r =
    next r;
    body r.s r.start r.stop

  let string r =
    next r;
    unescape_in r.s r.start r.stop

  let int r =
    next r;
    int_in "integer" r.s r.start r.stop

  let tagged_int r tag =
    next r;
    if r.stop - r.start < 2 || r.s.[r.start] <> tag then
      error "expected %c<integer>, got %S" tag (body r.s r.start r.stop);
    int_in "integer" r.s (r.start + 1) r.stop

  let float r =
    next r;
    float_in "float" r.s r.start r.stop

  let bool r =
    match raw r with
    | "1" -> true
    | "0" -> false
    | s -> error "expected 0/1, got %S" s

  let value r =
    next r;
    value_in r.s r.start r.stop

  (* The arity is checked against the bytes left before anything is
     allocated: every value takes at least one byte. *)
  let row r =
    let n = int r in
    if n < 0 || n > max 0 (String.length r.s - r.pos) then
      error "bad row arity %d" n;
    let row = Array.make n Value.Null in
    for i = 0 to n - 1 do
      row.(i) <- value r
    done;
    row
end

let value_to_field v = Writer.to_string (fun w -> Writer.value w v)

let put_sc_change w change =
  let module W = Writer in
  match change with
  | Sc_installed s ->
      W.raw w "install";
      W.string w s.sc_name;
      W.string w s.sc_table;
      W.bool w s.sc_absolute;
      W.float w s.sc_confidence;
      W.string w s.sc_state;
      W.int w s.sc_anchor;
      W.int w s.sc_violations;
      W.string w s.sc_repr
  | Sc_state { name; state } ->
      W.raw w "state";
      W.string w name;
      W.string w state
  | Sc_kind { name; absolute; confidence } ->
      W.raw w "kind";
      W.string w name;
      W.bool w absolute;
      W.float w confidence
  | Sc_anchor { name; anchor } ->
      W.raw w "anchor";
      W.string w name;
      W.int w anchor
  | Sc_violations { name; count } ->
      W.raw w "viol";
      W.string w name;
      W.int w count
  | Sc_statement { name; repr } ->
      W.raw w "stmt";
      W.string w name;
      W.string w repr
  | Sc_dropped { name } ->
      W.raw w "drop";
      W.string w name
  | Sc_exception { name; table } ->
      W.raw w "exc";
      W.string w name;
      W.string w table

(* Fields are read in line order, so every read is let-bound: record
   fields and arguments are evaluated in an unspecified order. *)
let take_sc_change r =
  let module R = Reader in
  match R.raw r with
  | "install" ->
      let sc_name = R.string r in
      let sc_table = R.string r in
      let sc_absolute = R.bool r in
      let sc_confidence = R.float r in
      let sc_state = R.string r in
      let sc_anchor = R.int r in
      let sc_violations = R.int r in
      let sc_repr = R.string r in
      Sc_installed
        {
          sc_name;
          sc_table;
          sc_absolute;
          sc_confidence;
          sc_state;
          sc_anchor;
          sc_violations;
          sc_repr;
        }
  | "state" ->
      let name = R.string r in
      let state = R.string r in
      Sc_state { name; state }
  | "kind" ->
      let name = R.string r in
      let absolute = R.bool r in
      let confidence = R.float r in
      Sc_kind { name; absolute; confidence }
  | "anchor" ->
      let name = R.string r in
      let anchor = R.int r in
      Sc_anchor { name; anchor }
  | "viol" ->
      let name = R.string r in
      let count = R.int r in
      Sc_violations { name; count }
  | "stmt" ->
      let name = R.string r in
      let repr = R.string r in
      Sc_statement { name; repr }
  | "drop" ->
      let name = R.string r in
      Sc_dropped { name }
  | "exc" ->
      let name = R.string r in
      let table = R.string r in
      Sc_exception { name; table }
  | verb -> error "bad sc record %S" verb

(* a data record: txn, table, rid, count-prefixed rows *)
let put_data w tag txn table rid rows =
  Writer.raw w tag;
  Writer.int w txn;
  Writer.string w table;
  Writer.int w rid;
  List.iter (Writer.row w) rows

let put_record w r =
  let module W = Writer in
  match r with
  | Begin { txn } ->
      W.raw w "B";
      W.int w txn
  | Commit { txn } ->
      W.raw w "C";
      W.int w txn
  | Abort { txn } ->
      W.raw w "A";
      W.int w txn
  | Insert { txn; table; rid; row } -> put_data w "I" txn table rid [ row ]
  | Delete { txn; table; rid; row } -> put_data w "D" txn table rid [ row ]
  | Update { txn; table; rid; before; after } ->
      put_data w "U" txn table rid [ before; after ]
  | Ddl { txn; sql } ->
      W.raw w "Q";
      W.int w txn;
      W.string w sql
  | Sc { txn; change } ->
      W.raw w "S";
      W.int w txn;
      put_sc_change w change
  | Idx_state { txn; name; state } ->
      W.raw w "X";
      W.int w txn;
      W.string w name;
      W.string w state

let record_to_line r = Writer.to_string (fun w -> put_record w r)

let record_of_line line =
  let module R = Reader in
  let r = R.of_string line in
  let record =
    match R.raw r with
    | "B" -> Begin { txn = R.int r }
    | "C" -> Commit { txn = R.int r }
    | "A" -> Abort { txn = R.int r }
    | ("I" | "D" | "U") as tag -> (
        let txn = R.int r in
        let table = R.string r in
        let rid = R.int r in
        let row = R.row r in
        match tag with
        | "I" -> Insert { txn; table; rid; row }
        | "D" -> Delete { txn; table; rid; row }
        | _ -> Update { txn; table; rid; before = row; after = R.row r })
    | "Q" ->
        let txn = R.int r in
        Ddl { txn; sql = R.string r }
    | "S" ->
        let txn = R.int r in
        Sc { txn; change = take_sc_change r }
    | "X" ->
        let txn = R.int r in
        let name = R.string r in
        Idx_state { txn; name; state = R.string r }
    | _ -> error "corrupt log line: %S" line
  in
  R.finish r;
  record

(* ---- line format: LSN + CRC32 ------------------------------------------ *)

(* Every line wraps its payload in an integrity header:

     L<lsn> \t <crc32-hex8> \t <payload>

   The LSN increases by one per line within a file (a rewrite restarts
   it at 1), and the checksum covers "<lsn>\t<payload>", so a torn,
   bit-flipped, or spliced line is detected rather than misparsed. *)

let line_of_record ~lsn r =
  let payload = record_to_line r in
  let lsn_s = string_of_int lsn in
  let crc = Crc32.string (lsn_s ^ "\t" ^ payload) in
  "L" ^ lsn_s ^ "\t" ^ Crc32.to_hex crc ^ "\t" ^ payload

let is_digit c = c >= '0' && c <= '9'

let parse_line line =
  let n = String.length line in
  if n < 2 || line.[0] <> 'L' || not (is_digit line.[1]) then
    Error "no L<lsn> header"
  else
    match String.index_opt line '\t' with
    | None -> Error "line truncated before checksum"
    | Some t1 -> (
        match String.index_from_opt line (t1 + 1) '\t' with
        | None -> Error "line truncated before payload"
        | Some t2 -> (
            let lsn_s = String.sub line 1 (t1 - 1) in
            let crc_s = String.sub line (t1 + 1) (t2 - t1 - 1) in
            let payload = String.sub line (t2 + 1) (n - t2 - 1) in
            match (int_of_string_opt lsn_s, Crc32.of_hex crc_s) with
            | None, _ -> Error (Printf.sprintf "bad LSN field %S" lsn_s)
            | _, None -> Error (Printf.sprintf "bad checksum field %S" crc_s)
            | Some lsn, Some stored -> (
                let computed = Crc32.string (lsn_s ^ "\t" ^ payload) in
                if computed <> stored then
                  Error
                    (Printf.sprintf "checksum mismatch (stored %s, computed %s)"
                       (Crc32.to_hex stored) (Crc32.to_hex computed))
                else
                  match record_of_line payload with
                  | r -> Ok (lsn, r)
                  | exception Wal_error m -> Error m)))

(* A log's first bytes are a header, or what a tear left of one: a first
   write cut after its "L" still makes a log. *)
let is_log contents =
  match String.length contents with
  | 0 -> true
  | 1 -> contents = "L"
  | _ -> contents.[0] = 'L' && is_digit contents.[1]

type scanned = {
  lineno : int;  (* 1-based, blank lines counted *)
  offset : int;  (* byte offset of the line start *)
  bytes : int;  (* line length including the newline, if present *)
  parsed : (int * record, string) result;
}

let scan_string contents =
  let n = String.length contents in
  let rec loop acc lineno off =
    if off >= n then List.rev acc
    else begin
      let nl =
        match String.index_from_opt contents off '\n' with
        | Some i -> i
        | None -> n
      in
      let line = String.sub contents off (nl - off) in
      let bytes = min n (nl + 1) - off in
      let acc =
        if line = "" then acc (* blank separators tolerated, as in load *)
        else { lineno; offset = off; bytes; parsed = parse_line line } :: acc
      in
      loop acc (lineno + 1) (nl + 1)
    end
  in
  loop [] 1 0

let read_file_bytes fpath =
  if not (Sys.file_exists fpath) then ""
  else In_channel.with_open_bin fpath In_channel.input_all

let scan_file fpath =
  let contents = read_file_bytes fpath in
  (contents, scan_string contents)

let txn_of = function
  | Begin { txn }
  | Commit { txn }
  | Abort { txn }
  | Insert { txn; _ }
  | Delete { txn; _ }
  | Update { txn; _ }
  | Ddl { txn; _ }
  | Sc { txn; _ }
  | Idx_state { txn; _ } ->
      txn

let committed_txns records =
  let committed = Hashtbl.create 16 in
  List.iter
    (function
      | Commit { txn } -> Hashtbl.replace committed txn ()
      | _ -> ())
    records;
  fun txn -> Hashtbl.mem committed txn

(* ---- sinks -------------------------------------------------------------- *)

type sink =
  | Memory of record list ref (* newest first *)
  | File of { fpath : string; mutable oc : out_channel option }

type t = {
  sink : sink;
  mutable next_txn : int;
  mutable next_lsn : int;
  mutable closed : bool;
}

(* Strict load: any unparsable or checksum-failing line raises.  The
   salvage-aware path ({!scan_file} + {!Core.Recovery}) classifies
   instead of raising. *)
let load_file fpath =
  let _, scanned = scan_file fpath in
  List.map
    (fun s ->
      match s.parsed with
      | Ok (_, r) -> r
      | Error m -> error "corrupt log line %d: %s" s.lineno m)
    scanned

let max_txn records =
  List.fold_left (fun acc r -> max acc (txn_of r)) 0 records

let create_memory () =
  { sink = Memory (ref []); next_txn = 1; next_lsn = 1; closed = false }

let open_append fpath =
  try open_out_gen [ Open_append; Open_creat ] 0o644 fpath
  with Sys_error m -> error "cannot open log %s: %s" fpath m

(* Open for appending from a scan of the file as it stands: numbering
   continues above the highest transaction id and LSN in it.  Strict, like
   {!load_file}: a corrupt line is the salvage path's business. *)
let open_scanned fpath scanned =
  let txn_hi, lsn_hi =
    List.fold_left
      (fun (txn, lsn) s ->
        match s.parsed with
        | Ok (l, r) -> (max txn (txn_of r), max lsn l)
        | Error m -> error "corrupt log line %d: %s" s.lineno m)
      (0, 0) scanned
  in
  {
    sink = File { fpath; oc = Some (open_append fpath) };
    next_txn = txn_hi + 1;
    next_lsn = lsn_hi + 1;
    closed = false;
  }

let open_file fpath = open_scanned fpath (snd (scan_file fpath))

let check_open t = if t.closed then error "write-ahead log is closed"

let fresh_txn t =
  check_open t;
  let id = t.next_txn in
  t.next_txn <- id + 1;
  id

let file_oc fpath = function
  | Some oc -> oc
  | None -> error "log %s is closed" fpath

(* A failed write leaves the log's tail unknown, so the log closes: no
   later commit can be acknowledged on top of it. *)
let write_failed t fpath m =
  t.closed <- true;
  error "write to %s failed: %s" fpath m

let append t r =
  check_open t;
  point "wal.append";
  match t.sink with
  | Memory records -> records := r :: !records
  | File f -> (
      point "wal.io";
      let oc = file_oc f.fpath f.oc in
      let lsn = t.next_lsn in
      t.next_lsn <- lsn + 1;
      let line = line_of_record ~lsn r ^ "\n" in
      try !write_hook ~point:"wal.io" ~write:(fun s -> output_string oc s) line
      with Sys_error m -> write_failed t f.fpath m)

let flush t =
  match t.sink with
  | File { fpath; oc = Some oc } -> (
      try Stdlib.flush oc with Sys_error m -> write_failed t fpath m)
  | File { oc = None; _ } | Memory _ -> ()

let commit t txn =
  check_open t;
  point "wal.pre_commit";
  append t (Commit { txn });
  flush t;
  point "wal.post_commit"

let abort t txn =
  check_open t;
  append t (Abort { txn });
  flush t

let records t =
  match t.sink with
  | Memory records -> List.rev !records
  | File f ->
      flush t;
      load_file f.fpath

(* The one log rewriter: [records], numbered from LSN 1, go to a sibling
   file that is renamed over [fpath], so a crash mid-rewrite leaves the
   original intact.  Returns the number of lines.  [hooked] is the
   checkpoint's: every line passes the write hook, and [wal.checkpoint]
   fires before the rename. *)
let rewrite ~hooked fpath records =
  let tmp = fpath ^ ".ckpt" in
  let lines = ref 0 in
  Out_channel.with_open_bin tmp (fun oc ->
      let write s = output_string oc s in
      List.iter
        (fun r ->
          incr lines;
          let line = line_of_record ~lsn:!lines r ^ "\n" in
          if hooked then !write_hook ~point:"wal.checkpoint" ~write line
          else write line)
        records);
  if hooked then point "wal.checkpoint";
  Sys.rename tmp fpath;
  !lines

let rewrite_file fpath records =
  ignore (rewrite ~hooked:false fpath records : int)

let truncate_with t new_records =
  check_open t;
  (match t.sink with
  | Memory records ->
      point "wal.checkpoint";
      records := List.rev new_records
  | File f ->
      let lines = rewrite ~hooked:true f.fpath new_records in
      (* the old channel writes to the file the rename replaced *)
      Option.iter close_out_noerr f.oc;
      f.oc <- Some (open_append f.fpath);
      t.next_lsn <- lines + 1);
  t.next_txn <- max t.next_txn (max_txn new_records + 1)

let close t =
  (try flush t with Wal_error _ -> ());
  (match t.sink with
  | Memory _ -> ()
  | File f ->
      Option.iter close_out_noerr f.oc;
      f.oc <- None);
  t.closed <- true
