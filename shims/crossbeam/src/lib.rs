//! Offline stand-in for the `crossbeam` APIs this workspace uses.
//!
//! Only `crossbeam::channel::{unbounded, Sender, Receiver}` is provided,
//! implemented over `std::sync::mpsc`. No crate of the workspace uses it
//! any more; it stays until the dependency lines go (ROADMAP item 3). Scoped threads in this workspace use
//! `std::thread::scope` directly.

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    /// Error returned by [`Sender::send`] when the channel is disconnected.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// disconnected.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait timed out with the channel still empty.
        Timeout,
        /// All senders disconnected.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders disconnected.
        Disconnected,
    }

    /// Sending half of an unbounded channel.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Sends a message, failing only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Receiving half of an unbounded channel.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Receives a message if one is already queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Iterates over messages until all senders disconnect.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_across_threads() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            let sender = std::thread::spawn(move || tx2.send(41).unwrap());
            tx.send(1).unwrap();
            let a = rx.recv().unwrap();
            let b = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(a + b, 42);
            // The thread's sender is dropped when the thread ends, which
            // can be after its message was received.
            sender.join().unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }
    }
}
