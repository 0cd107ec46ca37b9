type t = Unone | Uaddr | Ucontrol | Ustack | Udata

let all = [ Uaddr; Ustack; Ucontrol; Udata; Unone ]

let name = function
  | Unone -> "none"
  | Uaddr -> "addr"
  | Ucontrol -> "control"
  | Ustack -> "stack"
  | Udata -> "data"

let of_name = function
  | "none" -> Some Unone
  | "addr" -> Some Uaddr
  | "control" -> Some Ucontrol
  | "stack" -> Some Ustack
  | "data" -> Some Udata
  | _ -> None
