type t = { registry : Registry.t; series : Series.t option }

let create () = { registry = Registry.create (); series = None }
