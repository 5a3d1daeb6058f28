//! Offline stand-in for the `crossbeam` crate: unbounded MPMC channels.
//!
//! The build container has no access to crates.io, so the workspace vendors
//! the channel surface it needs. The implementation is a mutex/condvar queue:
//! correct and simple rather than lock-free. Every blocking receive parks on
//! the channel's condvar and is woken by `send`; nothing here sleeps or
//! polls. There is no multi-channel select: a consumer of several sources
//! takes one message type on one channel instead.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::Duration;

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        cv: Condvar,
    }

    /// Sending half of an unbounded channel. Cloneable (MPMC).
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half of an unbounded channel. Cloneable (MPMC).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// The channel is disconnected (all receivers dropped); returns the value.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// The channel is empty and all senders dropped.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Why a `try_recv` returned nothing.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and no sender remains.
        Disconnected,
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cv: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Queue a value; fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut s = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if s.receivers == 0 {
                return Err(SendError(value));
            }
            s.queue.push_back(value);
            drop(s);
            self.chan.cv.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut s = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            s.senders -= 1;
            let disconnect = s.senders == 0;
            drop(s);
            if disconnect {
                self.chan.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives or the channel disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut s = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = s.queue.pop_front() {
                    return Ok(v);
                }
                if s.senders == 0 {
                    return Err(RecvError);
                }
                s = self.chan.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Block for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, TryRecvError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut s = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = s.queue.pop_front() {
                    return Ok(v);
                }
                if s.senders == 0 {
                    return Err(TryRecvError::Disconnected);
                }
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    return Err(TryRecvError::Empty);
                }
                let (g, _) = self
                    .chan
                    .cv
                    .wait_timeout(s, left)
                    .unwrap_or_else(PoisonError::into_inner);
                s = g;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut s = self
                .chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(v) = s.queue.pop_front() {
                Ok(v)
            } else if s.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking iterator draining the channel until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .receivers -= 1;
        }
    }

    /// Blocking iterator over received values; ends on disconnect.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError, TryRecvError};
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded();
        tx.send(7u32).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx2, rx2) = unbounded::<u32>();
        drop(rx2);
        assert!(tx2.send(1).is_err());
    }

    #[test]
    fn mpmc_receivers_share_work() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let h1 = std::thread::spawn(move || rx.iter().count());
        let h2 = std::thread::spawn(move || rx2.iter().count());
        let total = h1.join().unwrap() + h2.join().unwrap();
        assert_eq!(total, 100);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        tx.send(42).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }

    #[test]
    fn recv_timeout_paths() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(TryRecvError::Empty)
        );
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(1));
    }
}
