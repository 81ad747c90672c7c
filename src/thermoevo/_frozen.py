"""The immutability guard of the toolkit's records."""


class Frozen:
    """Base of the immutable records.

    Each record's ``__init__`` stores its fields with ``vars(self).update``;
    assigning or deleting an attribute afterwards raises
    :class:`AttributeError`.  :class:`functools.cached_property` writes the
    instance ``__dict__`` directly, so it still caches.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}' of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}' of {type(self).__name__}")
