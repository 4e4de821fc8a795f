include Set.Make (String)

let of_atoms = of_list

let pp ppf s =
  Format.fprintf ppf "{%s}" (String.concat ", " (elements s))

let to_string s = Format.asprintf "%a" pp s
