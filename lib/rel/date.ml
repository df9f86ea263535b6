(* Calendar dates represented as a count of days since the civil epoch
   1970-01-01 (negative before).  The proleptic-Gregorian conversion uses
   Howard Hinnant's era-based algorithm, which is exact over the full [int]
   range we care about. *)

type t = int

let epoch = 0

(* Conversion between (year, month, day) and day counts. *)

let days_from_civil ~year ~month ~day =
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let m' = if month > 2 then month - 3 else month + 9 in
  let doy = (((153 * m') + 2) / 5) + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let day = doy - (((153 * mp) + 2) / 5) + 1 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  let year = if month <= 2 then y + 1 else y in
  (year, month, day)

let is_leap_year year =
  year mod 4 = 0 && (year mod 100 <> 0 || year mod 400 = 0)

let days_in_month ~year ~month =
  match month with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year year then 29 else 28
  | _ -> invalid_arg "Date.days_in_month: month out of range"

let of_ymd year month day =
  if month < 1 || month > 12 then invalid_arg "Date.of_ymd: bad month";
  if day < 1 || day > days_in_month ~year ~month then
    invalid_arg "Date.of_ymd: bad day";
  days_from_civil ~year ~month ~day

let to_ymd t = civil_from_days t

let year t =
  let y, _, _ = to_ymd t in
  y

let month t =
  let _, m, _ = to_ymd t in
  m

let day t =
  let _, _, d = to_ymd t in
  d

let add_days t n = t + n
let diff_days a b = a - b
let compare : t -> t -> int = Stdlib.compare
let equal (a : t) (b : t) = a = b

(* 1970-01-01 was a Thursday; weekday 0 = Monday ... 6 = Sunday. *)
let weekday t = ((t mod 7) + 7 + 3) mod 7

let to_string t =
  let y, m, d = to_ymd t in
  Printf.sprintf "%04d-%02d-%02d" y m d

let of_string s =
  let fail () = invalid_arg (Printf.sprintf "Date.of_string: %S" s) in
  if String.length s <> 10 || s.[4] <> '-' || s.[7] <> '-' then fail ();
  let int_of sub =
    match int_of_string_opt sub with Some v -> v | None -> fail ()
  in
  let y = int_of (String.sub s 0 4) in
  let m = int_of (String.sub s 5 2) in
  let d = int_of (String.sub s 8 2) in
  of_ymd y m d

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None
let pp ppf t = Fmt.string ppf (to_string t)

let first_of_month ~year ~month = of_ymd year month 1

let last_of_month ~year ~month = of_ymd year month (days_in_month ~year ~month)
