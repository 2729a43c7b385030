(** Turns an application spec into a deployable image: synthesized library
    packages plus a generated handler module in the Figure-4 shape (imports
    and app-level setup above a [handler(event, context)] entry point). *)

val deployment : Apps.spec -> Platform.Deployment.t
