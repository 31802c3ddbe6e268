let port = 9000
let usys_store s = Node_files.store (Node_files.of_usys s)
let usys_journal s = Node_files.sink (Node_files.of_usys s)
