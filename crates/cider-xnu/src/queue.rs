//! XNU `queue.h`-style queues.
//!
//! Mach IPC threads its message queues and psynch its waiter lists
//! through [`XnuQueue`]. XNU chains these recursively (queues holding
//! queue heads); [`XnuQueue`] is the flat form that §4.2 says the code
//! "was rewritten" into "to better fit within Linux".

use std::collections::VecDeque;

/// A flat queue with the XNU `queue.h` vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XnuQueue<T> {
    items: VecDeque<T>,
}

impl<T> Default for XnuQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> XnuQueue<T> {
    /// `queue_init`.
    pub fn new() -> XnuQueue<T> {
        XnuQueue {
            items: VecDeque::new(),
        }
    }

    /// `enqueue_tail`.
    pub fn enqueue_tail(&mut self, item: T) {
        self.items.push_back(item);
    }

    /// `dequeue_head`.
    pub fn dequeue_head(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `queue_iterate`.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_queue_fifo() {
        let mut q = XnuQueue::new();
        assert!(q.is_empty());
        for i in 0..3 {
            q.enqueue_tail(i);
        }
        assert_eq!(q.len(), 3);
        assert!(q.iter().copied().eq(0..3));
        assert_eq!(q.dequeue_head(), Some(0));
        q.enqueue_tail(3);
        assert_eq!(q.dequeue_head(), Some(1));
        assert_eq!(q.dequeue_head(), Some(2));
        assert_eq!(q.dequeue_head(), Some(3));
        assert_eq!(q.dequeue_head(), None);
        assert!(q.is_empty());
    }
}
