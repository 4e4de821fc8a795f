type t = { base : Tensor.t; a : Tensor.t; b : Tensor.t; rank : int }

let create rng ~base ~rank =
  let m, n =
    match Tensor.dims base with
    | [| m; n |] -> (m, n)
    | _ -> invalid_arg "Lora.create: base must be a matrix"
  in
  if rank < 1 then invalid_arg "Lora.create: rank must be positive";
  {
    base;
    a = Tensor.zeros [| m; rank |];
    b = Tensor.gaussian rng [| rank; n |] ~stddev:(1.0 /. sqrt (float_of_int n));
    rank;
  }

let clone l = { l with a = Tensor.copy l.a; b = Tensor.copy l.b }

let effective l =
  let m, n =
    match Tensor.dims l.base with [| m; n |] -> (m, n) | _ -> assert false
  in
  let out = Tensor.copy l.base in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to l.rank - 1 do
        acc := !acc +. (Tensor.get2 l.a i k *. Tensor.get2 l.b k j)
      done;
      Tensor.set2 out i j (Tensor.get2 out i j +. !acc)
    done
  done;
  out

let params ~prefix l =
  [ Optim.param (prefix ^ ".lora_a") l.a; Optim.param (prefix ^ ".lora_b") l.b ]
